// Writer-scaling of MemKV Sets through the AOF's group commit
// (storage/commit_log.h). The claim under test: when N writer threads
// block on durability, the writer leading each batch coalesces the queued
// frames into a single write+fsync, which amortizes the fsync across the
// group, so throughput under appendfsync=always *scales* with writers
// instead of serializing on the disk flush. The per-write baseline is the same
// commit log clamped to one frame per batch (commit_max_batch_frames=1) —
// exactly the pre-group-commit path, one fsync per Set.
//
//   build/bench/bench_put_scale [--records=N] [--ops=N] [--paper-scale]
//
// Sweep: 1..8 writer threads x {group commit, per-write baseline} x
// {always, everysec}, against real files under /tmp (an in-memory Env
// would hide the fsync cost that group commit exists to amortize). Each
// row reports client-observed throughput and p50/p99 latency under fsync.
//
// Gate (exit code, armed only on >= 4 cores):
//   * 4-thread kAlways group-commit throughput >= 2x the 4-thread
//     per-write-fsync baseline.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/report.h"
#include "bench_util.h"
#include "common/clock.h"
#include "common/string_util.h"
#include "kvstore/db.h"

namespace gdpr::bench {
namespace {

std::string KeyOf(size_t i) { return "user" + std::to_string(i); }

double Percentile(std::vector<int64_t>* lat, double p) {
  if (lat->empty()) return 0;
  std::sort(lat->begin(), lat->end());
  const size_t idx =
      std::min(lat->size() - 1, size_t(p * double(lat->size() - 1) + 0.5));
  return double((*lat)[idx]);
}

struct RunResult {
  double ops_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
  size_t failures = 0;  // any failed Set = wrong code path or sick disk
};

// `threads` writers each issue `ops_per_thread` Sets into a shared
// keyspace; every Set blocks in the AOF's commit log until its frame's
// durability is decided per the sync policy.
RunResult RunWriters(const std::string& aof_path, SyncPolicy policy,
                     size_t max_batch_frames, size_t records, size_t threads,
                     size_t ops_per_thread) {
  Env::Posix()->DeleteFile(aof_path).ok();
  kv::Options o;
  o.aof_enabled = true;
  o.aof_path = aof_path;
  o.sync_policy = policy;
  o.commit_max_batch_frames = max_batch_frames;
  kv::MemKV db(o);
  RunResult r;
  if (!db.Open().ok()) {
    r.failures = 1;
    return r;
  }
  const std::string value(128, 'v');
  std::vector<std::thread> writers;
  std::vector<std::vector<int64_t>> lat(threads);
  std::atomic<size_t> failures{0};
  const int64_t start = RealClock::Default()->NowMicros();
  for (size_t t = 0; t < threads; ++t) {
    writers.emplace_back([&, t] {
      uint32_t x = 0x9e3779b9u * uint32_t(t + 1);
      auto& samples = lat[t];
      samples.reserve(ops_per_thread / 4 + 1);
      for (size_t i = 0; i < ops_per_thread; ++i) {
        x ^= x << 13; x ^= x >> 17; x ^= x << 5;
        const std::string key = KeyOf(x % records);
        if ((i & 3) == 0) {
          const int64_t t0 = RealClock::Default()->NowMicros();
          if (!db.Set(key, value).ok()) failures.fetch_add(1);
          samples.push_back(RealClock::Default()->NowMicros() - t0);
        } else {
          if (!db.Set(key, value).ok()) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  const int64_t elapsed = RealClock::Default()->NowMicros() - start;
  db.Close().ok();
  Env::Posix()->DeleteFile(aof_path).ok();

  std::vector<int64_t> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  r.ops_per_sec =
      elapsed > 0 ? double(threads * ops_per_thread) * 1e6 / double(elapsed)
                  : 0;
  r.p50_us = Percentile(&all, 0.50);
  r.p99_us = Percentile(&all, 0.99);
  r.failures = failures.load();
  return r;
}

}  // namespace
}  // namespace gdpr::bench

int main(int argc, char** argv) {
  using namespace gdpr::bench;
  BenchArgs args = BenchArgs::Parse(argc, argv);
  const size_t records =
      args.records ? args.records : (args.paper_scale ? 100000 : 10000);
  const size_t ops = args.ops ? args.ops : (args.paper_scale ? 20000 : 4000);
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const std::string dir =
      "/tmp/gdprbench_put_scale_" + std::to_string(getpid());

  printf("%s", Banner("Put scale: group commit vs per-write fsync").c_str());
  printf("%zu-key space, %zu sets per writer thread, %u cores, real files "
         "under /tmp.\n\n",
         records, ops, cores);

  struct Policy {
    const char* name;
    gdpr::SyncPolicy policy;
  } policies[] = {{"always", gdpr::SyncPolicy::kAlways},
                  {"everysec", gdpr::SyncPolicy::kEverySec}};
  struct Mode {
    const char* name;
    size_t max_batch_frames;  // 0 = group commit; 1 = per-write baseline
  } modes[] = {{"group", 0}, {"perwrite", 1}};

  ReportTable table(
      {"policy", "mode", "writers", "Kops/s", "p50 us", "p99 us"});
  // [policy][mode][thread-step] throughput for the speedup series/gate.
  double tput[2][2][4] = {};
  size_t total_failures = 0;
  const size_t widths[] = {1, 2, 4, 8};
  for (size_t pi = 0; pi < 2; ++pi) {
    for (size_t mi = 0; mi < 2; ++mi) {
      for (size_t wi = 0; wi < 4; ++wi) {
        const size_t threads = widths[wi];
        const std::string aof = gdpr::StringPrintf(
            "%s_%s_%s_%zut.aof", dir.c_str(), policies[pi].name,
            modes[mi].name, threads);
        RunResult r =
            RunWriters(aof, policies[pi].policy, modes[mi].max_batch_frames,
                       records, threads, ops);
        tput[pi][mi][wi] = r.ops_per_sec;
        total_failures += r.failures;
        table.AddRow({policies[pi].name, modes[mi].name,
                      std::to_string(threads),
                      gdpr::StringPrintf("%.1f", r.ops_per_sec / 1e3),
                      gdpr::StringPrintf("%.1f", r.p50_us),
                      gdpr::StringPrintf("%.1f", r.p99_us)});
        printf("%s\n",
               BenchResultJson(
                   gdpr::StringPrintf("put-scale-%s-%s-%zut", modes[mi].name,
                                      policies[pi].name, threads),
                   r.ops_per_sec, r.p50_us, r.p99_us)
                   .c_str());
      }
    }
  }

  // Group-commit speedup over the per-write baseline, per writer width
  // (kAlways — the policy where the fsync amortization is the whole
  // story). "speedup" in the series name sets higher-is-better in
  // tools/bench_compare.py.
  for (size_t wi = 0; wi < 4; ++wi) {
    const double base = tput[0][1][wi];
    const double group = tput[0][0][wi];
    printf("%s\n", SeriesPoint("put-scale-group-speedup", double(widths[wi]),
                               base > 0 ? group / base : 0)
                       .c_str());
  }

  printf("\n%s\n", table.Render().c_str());
  const double gate_base = tput[0][1][2];   // kAlways, per-write, 4 threads
  const double gate_group = tput[0][0][2];  // kAlways, group, 4 threads
  const double gate_speedup = gate_base > 0 ? gate_group / gate_base : 0;
  printf("Group commit vs per-write fsync at 4 writers (always): %.2fx "
         "(gate: >= 2x on >= 4 cores)\n",
         gate_speedup);
  printf("Set failures: %zu (gate: 0)\n", total_failures);

  bool pass = total_failures == 0;
  if (cores >= 4) {
    if (gate_speedup < 2.0) pass = false;
  } else {
    printf("(< 4 cores: scaling gates not armed, metrics emitted only)\n");
  }
  printf("\n%s\n", pass ? "PUT SCALE: PASS" : "PUT SCALE: FAIL");
  return pass ? 0 : 1;
}
