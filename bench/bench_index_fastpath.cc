// The perf headline of the engine bring-up: metadata queries on the KV
// store with compliance.metadata_indexing on (secondary user/purpose/
// sharing indexes + TTL heap) versus off (the paper's O(n) scan-parse-
// filter path). The paper's Fig 5a/7b linear walls come from the scan
// path; this binary quantifies the gap directly at 100k records.
//
// It also prices what the indexes cost a write: UPDATE-METADATA-BY-KEY
// rotating a record's sharing partner, indexed vs scan. The scan path does
// no index work, so the gap is pure index maintenance, and it must stay
// within 3x: an update touches only the postings it changes.
//
//   build/bench/bench_index_fastpath [--records=N] [--ops=N]

#include <algorithm>
#include <cstdio>

#include "bench/generator.h"
#include "bench/report.h"
#include "bench_util.h"
#include "common/string_util.h"

namespace gdpr::bench {
namespace {

struct PathCost {
  double sharing_us = 0;  // READ-METADATA-BY-SHR
  double user_us = 0;     // READ-METADATA-BY-USER
  double delete_user_us = 0;  // DELETE-RECORDS-BY-USER
  double expired_us = 0;  // DELETE-EXPIRED-RECORDS
  double update_us = 0;   // UPDATE-METADATA-BY-KEY (shared_with rotation)
};

PathCost Measure(bool indexed, size_t records, size_t ops) {
  SimulatedClock data_clock(1000000);
  KvGdprOptions o;
  o.clock = &data_clock;  // store and generator share one timeline
  o.compliance.metadata_indexing = indexed;
  KvGdprStore store(o);
  if (!store.Open().ok()) exit(1);

  DatasetConfig cfg;
  cfg.data_bytes = 64;
  RecordGenerator gen(cfg, &data_clock);
  const Actor controller = Actor::Controller();
  for (size_t i = 0; i < records; ++i) {
    if (!store.CreateRecord(controller, gen.Make(i)).ok()) exit(1);
  }

  Clock* wall = RealClock::Default();
  PathCost cost;
  Random rng(17);
  {
    const int64_t t0 = wall->NowMicros();
    for (size_t i = 0; i < ops; ++i) {
      store.ReadMetadataBySharing(Actor::Regulator(),
                                  gen.PartnerOf(rng.Uniform(records)))
          .ok();
    }
    cost.sharing_us = double(wall->NowMicros() - t0) / double(ops);
  }
  {
    const int64_t t0 = wall->NowMicros();
    for (size_t i = 0; i < ops; ++i) {
      const std::string user = gen.UserOf(rng.Uniform(records));
      store.ReadMetadataByUser(Actor::Customer(user), user).ok();
    }
    cost.user_us = double(wall->NowMicros() - t0) / double(ops);
  }
  {
    // Sharing rotations: each update moves one record to the next partner.
    // Many more of them than queries — an update is microseconds.
    const size_t n = ops * 50;
    const int64_t t0 = wall->NowMicros();
    for (size_t i = 0; i < n; ++i) {
      const size_t ord = rng.Uniform(records);
      MetadataUpdate u;
      u.shared_with = std::vector<std::string>{gen.PartnerOf(ord + 1 + i)};
      store.UpdateMetadataByKey(controller, gen.Key(ord), u).ok();
    }
    cost.update_us = double(wall->NowMicros() - t0) / double(n);
  }
  {
    // Per-user erasure (RTBF): each request erases one user's records.
    const size_t n = std::min<size_t>(ops, 50);
    const int64_t t0 = wall->NowMicros();
    for (size_t i = 0; i < n; ++i) {
      const std::string user = gen.UserOf(rng.Uniform(records));
      store.DeleteRecordsByUser(Actor::Customer(user), user).ok();
    }
    cost.delete_user_us = double(wall->NowMicros() - t0) / double(n);
  }
  {
    // Timely deletion, measured at the paper's cadence: the strict cycle
    // runs every 100 ms, so each sweep sees the handful of records whose
    // deadline just passed — discovery cost is what separates the TTL heap
    // (O(expired)) from the scan (O(n) parse-filter), so the erase work
    // itself is kept small and equal on both paths.
    const size_t cycles = 20;
    const int64_t step =
        cfg.ttl_horizon_micros / int64_t(std::max<size_t>(1, records / 8));
    const int64_t t0 = wall->NowMicros();
    for (size_t c = 0; c < cycles; ++c) {
      data_clock.AdvanceMicros(step);
      store.DeleteExpiredRecords(controller).ok();
    }
    cost.expired_us = double(wall->NowMicros() - t0) / double(cycles);
  }
  return cost;
}

}  // namespace
}  // namespace gdpr::bench

int main(int argc, char** argv) {
  using namespace gdpr::bench;
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  const size_t records = args.records ? args.records : 100000;
  const size_t ops = args.ops ? args.ops : 200;

  printf("%s", Banner("Metadata fast path: indexed vs O(n) scan (memkv)")
                   .c_str());
  printf("%zu records, %zu queries per metadata op.\n\n", records, ops);

  const PathCost scan = Measure(/*indexed=*/false, records, ops);
  const PathCost idx = Measure(/*indexed=*/true, records, ops);

  ReportTable table({"metadata op", "scan path", "indexed", "speedup"});
  struct RowDef {
    const char* name;
    double scan_us, idx_us;
  } rows[] = {
      {"READ-METADATA-BY-SHR", scan.sharing_us, idx.sharing_us},
      {"READ-METADATA-BY-USER", scan.user_us, idx.user_us},
      {"DELETE-RECORDS-BY-USER", scan.delete_user_us, idx.delete_user_us},
      {"DELETE-EXPIRED-RECORDS", scan.expired_us, idx.expired_us},
  };
  double worst_speedup = 1e30;
  for (const auto& r : rows) {
    const double speedup = r.idx_us > 0 ? r.scan_us / r.idx_us : 0;
    if (speedup < worst_speedup) worst_speedup = speedup;
    table.AddRow({r.name, gdpr::HumanMicros(int64_t(r.scan_us)),
                  gdpr::HumanMicros(int64_t(r.idx_us)),
                  gdpr::StringPrintf("%.1fx", speedup)});
    printf("%s\n", SeriesPoint(gdpr::StringPrintf("fastpath-scan-%s", r.name),
                               double(records), r.scan_us)
                       .c_str());
    printf("%s\n", SeriesPoint(gdpr::StringPrintf("fastpath-idx-%s", r.name),
                               double(records), r.idx_us)
                       .c_str());
    printf("%s\n",
           BenchResultJson(gdpr::StringPrintf("fastpath-%s", r.name),
                           r.idx_us > 0 ? 1e6 / r.idx_us : 0, r.idx_us,
                           r.idx_us)
               .c_str());
  }
  // The write-side price of the indexes: not a speedup, a bounded cost.
  const double update_ratio =
      scan.update_us > 0 ? idx.update_us / scan.update_us : 0;
  table.AddRow({"UPDATE-METADATA-BY-KEY",
                gdpr::StringPrintf("%.2f us", scan.update_us),
                gdpr::StringPrintf("%.2f us", idx.update_us),
                gdpr::StringPrintf("%.2fx", scan.update_us / idx.update_us)});
  printf("%s\n", SeriesPoint("fastpath-scan-UPDATE-METADATA-BY-KEY",
                             double(records), scan.update_us)
                     .c_str());
  printf("%s\n", SeriesPoint("fastpath-idx-UPDATE-METADATA-BY-KEY",
                             double(records), idx.update_us)
                     .c_str());
  printf("%s\n", BenchResultJson("fastpath-update-meta",
                                 idx.update_us > 0 ? 1e6 / idx.update_us : 0,
                                 idx.update_us, idx.update_us)
                     .c_str());
  printf("\n%s", table.Render().c_str());
  printf("\nEvery query row replaces an O(n) scan-parse-filter pass with an "
         "indexed lookup;\nworst-case speedup at this scale: %.1fx "
         "(target: >= 10x at 100k records).\n",
         worst_speedup);
  printf("Index maintenance on a sharing rotation: indexed update costs "
         "%.2fx the scan-path update (target: <= 3x).\n",
         update_ratio);
  return worst_speedup >= 10.0 && update_ratio <= 3.0 ? 0 : 1;
}
