// Figure 5 (a, b, c) + Table 3: GDPRbench on the three compliant
// configurations — (a) the KV store, (b) the relational store, (c) the
// relational store with metadata indices — reporting completion time per
// workload, correctness, and the space-overhead factor.
//
// Paper (§6.2): 100k records, 10k ops per workload, 8 threads. The
// relational store is roughly an order of magnitude faster than the KV
// store; metadata indices improve it further but push the space factor
// from 3.5x to 5.95x. Laptop-scale defaults; --paper-scale = 100k/10k.

#include <cstdio>

#include "bench/report.h"
#include "common/string_util.h"
#include "bench/runner.h"
#include "bench_util.h"

namespace gdpr::bench {
namespace {

struct StoreRun {
  std::string label;
  std::vector<WorkloadResult> results;
  double space_factor = 0;
};

StoreRun RunAll(const std::string& label, const std::string& row_label,
                GdprStore* store, const RunConfig& cfg) {
  StoreRun run;
  run.label = label;
  GdprBenchRunner runner(store, row_label, cfg);
  if (!runner.Load().ok()) {
    fprintf(stderr, "%s: load failed\n", label.c_str());
    exit(1);
  }
  run.space_factor = runner.SpaceFactor();
  for (const WorkloadSpec& spec : CoreWorkloads()) {
    run.results.push_back(runner.Run(spec));
    // Reload so each workload faces the same populated store (deletes in
    // one workload must not hand the next an emptier DB).
    if (!runner.Load().ok()) {
      fprintf(stderr, "%s: reload failed\n", label.c_str());
      exit(1);
    }
  }
  return run;
}

}  // namespace
}  // namespace gdpr::bench

int main(int argc, char** argv) {
  using namespace gdpr::bench;
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  RunConfig cfg;
  cfg.record_count =
      args.records ? args.records : (args.paper_scale ? 100000 : 10000);
  cfg.op_count = args.ops ? args.ops : (args.paper_scale ? 10000 : 2000);
  cfg.threads = args.threads;
  cfg.dataset.data_bytes = 10;  // Table 3: 10-byte personal data payload

  printf("%s", Banner("Figure 5: GDPRbench completion time per workload")
                   .c_str());
  printf("records=%zu ops/workload=%zu threads=%zu\n", cfg.record_count,
         cfg.op_count, cfg.threads);

  std::vector<StoreRun> runs;
  {
    auto store = MakeKvStore();
    runs.push_back(RunAll("memkv (5a)", "fig5-memkv", store.get(), cfg));
  }
  {
    auto store = MakeRelStore(/*metadata_indexing=*/false);
    runs.push_back(RunAll("reldb (5b)", "fig5-reldb", store.get(), cfg));
  }
  {
    auto store = MakeRelStore(/*metadata_indexing=*/true);
    runs.push_back(
        RunAll("reldb+idx (5c)", "fig5-reldb-idx", store.get(), cfg));
  }

  ReportTable table({"store", "workload", "completion", "ops/s",
                     "correctness", "p99 latency"});
  for (const StoreRun& run : runs) {
    for (const WorkloadResult& r : run.results) {
      table.AddRow({run.label, r.workload,
                    gdpr::HumanMicros(uint64_t(r.completion_micros)),
                    gdpr::StringPrintf("%.1f", r.throughput_ops_sec()),
                    gdpr::StringPrintf("%.1f%%", 100 * r.correctness()),
                    gdpr::HumanMicros(uint64_t(r.latency.Percentile(99)))});
      printf("%s\n",
             SeriesPoint(
                 gdpr::StringPrintf("fig5-%s-%s", run.label.c_str(),
                                    r.workload.c_str()),
                 0, double(r.completion_micros) / 60e6)
                 .c_str());
    }
  }
  printf("\n%s", table.Render().c_str());

  // Table 3: storage space overhead.
  printf("%s", Banner("Table 3: storage space overhead").c_str());
  ReportTable t3({"store", "space factor (total / personal bytes)"});
  for (const StoreRun& run : runs) {
    t3.AddRow({run.label, gdpr::StringPrintf("%.2fx", run.space_factor)});
  }
  printf("%s", t3.Render().c_str());
  printf("\nPaper: 3.5x for Redis and PostgreSQL, 5.95x for PostgreSQL\n"
         "with all metadata indices. Shape check: the indexed store must\n"
         "cost noticeably more than the unindexed ones, and the\n"
         "relational stores complete workloads faster than the KV store\n"
         "(paper Fig 5: ~10x).\n");
  return 0;
}
