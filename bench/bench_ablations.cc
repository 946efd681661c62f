// Ablations for the design choices called out in DESIGN.md §5:
//   1. AOF fsync policy (always / everysec / never) on real files — the
//      durability-vs-throughput axis behind the paper's audit retrofit.
//   2. Audit granularity: writes-only vs all-ops read logging — the
//      "every read becomes a read+write" effect in isolation.
//   3. Access-control enforcement on/off — the per-op policy-check cost.

#include <cstdio>
#include <unistd.h>

#include "bench/report.h"
#include "common/string_util.h"
#include "bench/runner.h"
#include "bench/ycsb.h"
#include "bench_util.h"

namespace gdpr::bench {
namespace {

double KvThroughput(const kv::Options& base_opts, size_t records, size_t ops,
                    size_t threads, const YcsbSpec& spec) {
  kv::Options o = base_opts;
  kv::MemKV db(o);
  db.Open().ok();
  MemKvYcsbAdapter adapter(&db);
  YcsbRunner runner(&adapter, records, 100);
  runner.Load(threads);
  const double tput = runner.Run(spec, ops, threads).throughput_ops_sec();
  db.Close().ok();
  return tput;
}

void FsyncAblation(const BenchArgs& args) {
  printf("%s",
         Banner("Ablation 1: AOF fsync policy (YCSB-A, real files)").c_str());
  const std::string dir = "/tmp/gdprbench_fsync_" + std::to_string(getpid());
  const size_t records = args.paper_scale ? 100000 : 10000;
  const size_t ops = args.paper_scale ? 100000 : 10000;
  ReportTable table({"appendfsync", "ops/s", "relative"});
  double base = 0;
  struct Policy {
    const char* name;
    SyncPolicy policy;
  } policies[] = {{"never", SyncPolicy::kNever},
                  {"everysec", SyncPolicy::kEverySec},
                  {"always", SyncPolicy::kAlways}};
  for (const auto& p : policies) {
    kv::Options o;
    o.aof_enabled = true;
    o.aof_path = dir + "_" + p.name + ".aof";
    o.sync_policy = p.policy;
    const double tput =
        KvThroughput(o, records, ops, args.threads, YcsbWorkloadA());
    Env::Posix()->DeleteFile(o.aof_path).ok();
    if (base == 0) base = tput;
    table.AddRow({p.name, StringPrintf("%.0f", tput),
                  StringPrintf("%.1f%%", 100 * tput / base)});
  }
  printf("%s\n", table.Render().c_str());
}

void AuditAblation(const BenchArgs& args) {
  printf("%s",
         Banner("Ablation 2: audit granularity (YCSB-C, read-only)").c_str());
  const size_t records = args.paper_scale ? 100000 : 20000;
  const size_t ops = args.paper_scale ? 200000 : 40000;
  ReportTable table({"audit mode", "ops/s", "relative"});
  double base = 0;
  for (bool log_reads : {false, true}) {
    MemEnv env;
    kv::Options o;
    o.env = &env;
    o.aof_enabled = true;
    o.sync_policy = SyncPolicy::kEverySec;
    o.log_reads = log_reads;
    const double tput =
        KvThroughput(o, records, ops, args.threads, YcsbWorkloadC());
    if (base == 0) base = tput;
    table.AddRow({log_reads ? "all ops (reads logged)" : "writes only",
                  StringPrintf("%.0f", tput),
                  StringPrintf("%.1f%%", 100 * tput / base)});
  }
  printf("%s\n", table.Render().c_str());
  printf("The drop is the paper's G 30 observation: audit logging turns\n"
         "every read into a read followed by a write.\n");
}

void AccessControlAblation(const BenchArgs& args) {
  printf("%s",
         Banner("Ablation 3: access control + audit layer cost "
                "(processor point reads)")
             .c_str());
  const size_t records = args.paper_scale ? 50000 : 10000;
  const size_t ops = args.paper_scale ? 20000 : 5000;
  ReportTable table({"gdpr layer", "ops/s", "relative"});
  double base = 0;
  for (int mode = 0; mode < 3; ++mode) {
    KvGdprOptions o;
    o.compliance.enforce_access_control = mode >= 1;
    o.compliance.audit_enabled = mode >= 2;
    KvGdprStore store(o);
    store.Open().ok();
    RunConfig cfg;
    cfg.record_count = records;
    cfg.op_count = ops;
    cfg.threads = args.threads;
    static const char* kRows[] = {"off", "acl", "acl-audit"};
    GdprBenchRunner runner(
        &store, std::string("ablation-memkv-") + kRows[mode], cfg);
    runner.Load().ok();
    WorkloadSpec point_reads;
    point_reads.name = "point-reads";
    point_reads.issuer = WorkloadSpec::Issuer::kProcessor;
    point_reads.distribution = DistributionKind::kZipfian;
    point_reads.mix = {{GdprOp::kReadDataByKey, 100.0}};
    const double tput = runner.Run(point_reads).throughput_ops_sec();
    if (base == 0) base = tput;
    static const char* kModes[] = {"off", "+access control",
                                   "+access control +audit"};
    table.AddRow({kModes[mode], StringPrintf("%.0f", tput),
                  StringPrintf("%.1f%%", 100 * tput / base)});
  }
  printf("%s\n", table.Render().c_str());
}

}  // namespace
}  // namespace gdpr::bench

int main(int argc, char** argv) {
  using namespace gdpr::bench;
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  FsyncAblation(args);
  AuditAblation(args);
  AccessControlAblation(args);
  return 0;
}
