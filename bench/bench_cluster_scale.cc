// Scatter-gather scaling of the cluster layer: the paper's GDPR workloads
// are metadata queries over ALL of a user's data (SAR, objection audits,
// sharing disclosures), which on one process cost one O(n) scan-parse pass.
// A ClusterGdprStore splits the keyspace over N nodes and runs the N
// sub-scans in parallel, so the same query approaches an N-fold speedup on
// enough cores. This binary sweeps 1 -> 8 nodes on the scan path (the
// paper's un-indexed configuration), reports the indexed path alongside,
// and finishes with a live-rebalance integrity check: MoveSlots under
// concurrent traffic must preserve every record and every audit chain.
//
//   build/bench/bench_cluster_scale [--records=N] [--ops=N] [--paper-scale]
//
// Gates (exit code): scan-path metadata throughput >= 2x going 1 -> 4 nodes
// (only enforced with >= 4 cores), and the live rebalance loses nothing.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/generator.h"
#include "bench/report.h"
#include "bench_util.h"
#include "cluster/cluster_store.h"
#include "common/string_util.h"

namespace gdpr::bench {
namespace {

struct SweepPoint {
  size_t nodes = 0;
  double ops_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
};

double Percentile(std::vector<int64_t>* lat, double p) {
  if (lat->empty()) return 0;
  std::sort(lat->begin(), lat->end());
  const size_t idx = std::min(lat->size() - 1,
                              size_t(p * double(lat->size() - 1) + 0.5));
  return double((*lat)[idx]);
}

SweepPoint MeasureMetaQueries(size_t nodes, bool indexed, size_t records,
                              size_t ops) {
  SimulatedClock data_clock(1000000);
  cluster::ClusterOptions co;
  co.nodes = nodes;
  co.clock = &data_clock;
  co.compliance.metadata_indexing = indexed;
  cluster::ClusterGdprStore store(co);
  if (!store.Open().ok()) exit(1);

  DatasetConfig cfg;
  cfg.data_bytes = 64;
  RecordGenerator gen(cfg, &data_clock);
  const Actor controller = Actor::Controller();
  for (size_t i = 0; i < records; ++i) {
    if (!store.CreateRecord(controller, gen.Make(i)).ok()) exit(1);
  }

  Clock* wall = RealClock::Default();
  Random rng(29);
  std::vector<int64_t> lat;
  lat.reserve(ops);
  const int64_t begin = wall->NowMicros();
  for (size_t i = 0; i < ops; ++i) {
    const size_t pick = rng.Uniform(records);
    const int64_t t0 = wall->NowMicros();
    switch (i % 3) {
      case 0:
        store.ReadMetadataByUser(controller, gen.UserOf(pick)).ok();
        break;
      case 1:
        store.ReadMetadataByPurpose(controller, gen.PurposeOf(pick)).ok();
        break;
      default:
        store.ReadMetadataBySharing(Actor::Regulator(), gen.PartnerOf(pick))
            .ok();
    }
    lat.push_back(wall->NowMicros() - t0);
  }
  const double elapsed_s = double(wall->NowMicros() - begin) / 1e6;
  SweepPoint pt;
  pt.nodes = nodes;
  pt.ops_per_sec = elapsed_s > 0 ? double(ops) / elapsed_s : 0;
  pt.p50_us = Percentile(&lat, 0.50);
  pt.p99_us = Percentile(&lat, 0.99);
  return pt;
}

// The price of the RPC seam: the same point-read workload with the node
// stores called directly and through a RemoteHandle over a loopback
// socketpair (frame encode + two syscalls + decode each way). Point reads
// are the worst case for the seam — scatter-gather queries amortize one
// frame over N sub-scans, a point read amortizes nothing.
SweepPoint MeasurePointReads(size_t nodes,
                             gdpr::cluster::ClusterTransport transport,
                             size_t records, size_t ops) {
  SimulatedClock data_clock(1000000);
  cluster::ClusterOptions co;
  co.nodes = nodes;
  co.clock = &data_clock;
  co.compliance.metadata_indexing = true;
  co.transport = transport;
  cluster::ClusterGdprStore store(co);
  if (!store.Open().ok()) exit(1);

  DatasetConfig cfg;
  cfg.data_bytes = 64;
  RecordGenerator gen(cfg, &data_clock);
  const Actor controller = Actor::Controller();
  for (size_t i = 0; i < records; ++i) {
    if (!store.CreateRecord(controller, gen.Make(i)).ok()) exit(1);
  }

  Clock* wall = RealClock::Default();
  Random rng(31);
  std::vector<int64_t> lat;
  lat.reserve(ops);
  const int64_t begin = wall->NowMicros();
  for (size_t i = 0; i < ops; ++i) {
    const size_t pick = rng.Uniform(records);
    const int64_t t0 = wall->NowMicros();
    if (!store.ReadDataByKey(controller, gen.Key(pick)).ok()) exit(1);
    lat.push_back(wall->NowMicros() - t0);
  }
  const double elapsed_s = double(wall->NowMicros() - begin) / 1e6;
  SweepPoint pt;
  pt.nodes = nodes;
  pt.ops_per_sec = elapsed_s > 0 ? double(ops) / elapsed_s : 0;
  pt.p50_us = Percentile(&lat, 0.50);
  pt.p99_us = Percentile(&lat, 0.99);
  return pt;
}

bool RunLiveRebalanceCheck(size_t records) {
  cluster::ClusterOptions co;
  co.nodes = 4;
  co.compliance.metadata_indexing = true;
  cluster::ClusterGdprStore store(co);
  if (!store.Open().ok()) return false;

  SimulatedClock gen_clock(1000000);
  DatasetConfig cfg;
  cfg.data_bytes = 64;
  cfg.ttl_every = 0;  // stable population -> exact count check
  RecordGenerator gen(cfg, &gen_clock);
  const Actor controller = Actor::Controller();
  for (size_t i = 0; i < records; ++i) {
    if (!store.CreateRecord(controller, gen.Make(i)).ok()) return false;
  }
  // Skew every slot onto node 0 so the rebalance has real work.
  std::vector<uint32_t> all_slots(store.slot_map().num_slots());
  for (uint32_t s = 0; s < all_slots.size(); ++s) all_slots[s] = s;
  if (!store.MoveSlots(all_slots, 0).ok()) return false;

  std::atomic<bool> stop{false};
  std::atomic<size_t> read_failures{0};
  std::atomic<size_t> traffic_ops{0};
  std::vector<std::thread> traffic;
  for (int t = 0; t < 4; ++t) {
    traffic.emplace_back([&, t] {
      Random rng(uint64_t(77 + t));
      while (!stop.load()) {
        const size_t i = rng.Uniform(records);
        if (t == 0) {
          store.UpdateDataByKey(controller, gen.Key(i), "rebalanced").ok();
        } else if (!store.ReadDataByKey(controller, gen.Key(i)).ok()) {
          read_failures.fetch_add(1);
        }
        traffic_ops.fetch_add(1);
      }
    });
  }
  Clock* wall = RealClock::Default();
  const int64_t t0 = wall->NowMicros();
  const bool rebalanced = store.Rebalance().ok();
  const double rebalance_ms = double(wall->NowMicros() - t0) / 1000.0;
  stop.store(true);
  for (auto& t : traffic) t.join();

  bool intact = rebalanced && store.RecordCount() == records &&
                read_failures.load() == 0;
  for (size_t i = 0; intact && i < records; ++i) {
    intact = store.ReadDataByKey(controller, gen.Key(i)).ok();
  }
  const auto per_node = store.slot_map().SlotsPerNode();
  const size_t expect = store.slot_map().num_slots() / per_node.size();
  for (const size_t c : per_node) intact = intact && c == expect;
  intact = intact && store.VerifyAuditChains();

  printf("live rebalance: %zu records, %zu traffic ops alongside, "
         "%.1f ms, %s\n",
         records, traffic_ops.load(), rebalance_ms,
         intact ? "all records + chains intact" : "INTEGRITY FAILURE");
  printf("%s\n", SeriesPoint("cluster-rebalance-ms", double(records),
                             rebalance_ms)
                     .c_str());
  return intact;
}

}  // namespace
}  // namespace gdpr::bench

int main(int argc, char** argv) {
  using namespace gdpr::bench;
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  size_t records = args.records ? args.records : 30000;
  size_t ops = args.ops ? args.ops : 60;
  if (args.paper_scale) {
    if (!args.records) records = 100000;
    if (!args.ops) ops = 120;
  }
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const size_t node_counts[] = {1, 2, 4, 8};

  printf("%s", Banner("Cluster scale: scatter-gather metadata queries, "
                      "1 -> 8 nodes")
                   .c_str());
  printf("%zu records, %zu queries per config, %u cores.\n\n", records, ops,
         cores);

  ReportTable table({"nodes", "scan ops/s", "scan p50", "scan p99",
                     "indexed ops/s"});
  double scan_1node = 0, scan_4node = 0;
  for (const size_t n : node_counts) {
    const SweepPoint scan =
        MeasureMetaQueries(n, /*indexed=*/false, records, ops);
    const SweepPoint idx =
        MeasureMetaQueries(n, /*indexed=*/true, records, ops);
    if (n == 1) scan_1node = scan.ops_per_sec;
    if (n == 4) scan_4node = scan.ops_per_sec;
    table.AddRow({gdpr::StringPrintf("%zu", n),
                  gdpr::StringPrintf("%.0f", scan.ops_per_sec),
                  gdpr::HumanMicros(int64_t(scan.p50_us)),
                  gdpr::HumanMicros(int64_t(scan.p99_us)),
                  gdpr::StringPrintf("%.0f", idx.ops_per_sec)});
    printf("%s\n", SeriesPoint("cluster-scan-metaq-ops", double(n),
                               scan.ops_per_sec)
                       .c_str());
    printf("%s\n", SeriesPoint("cluster-idx-metaq-ops", double(n),
                               idx.ops_per_sec)
                       .c_str());
    printf("%s\n",
           BenchResultJson(gdpr::StringPrintf("cluster-scan-metaq-%zun", n),
                           scan.ops_per_sec, scan.p50_us, scan.p99_us)
               .c_str());
    printf("%s\n",
           BenchResultJson(gdpr::StringPrintf("cluster-idx-metaq-%zun", n),
                           idx.ops_per_sec, idx.p50_us, idx.p99_us)
               .c_str());
  }
  printf("\n%s\n", table.Render().c_str());

  const double speedup = scan_1node > 0 ? scan_4node / scan_1node : 0;
  printf("scan-path metadata throughput 1 -> 4 nodes: %.2fx "
         "(gate: >= 2x on >= 4 cores)\n\n",
         speedup);

  // Transport dimension: point reads in-process vs over the loopback
  // socket. The gate is a generous absolute budget — shared 1-core CI
  // runners are noisy, so we only insist a loopback RPC round trip stays
  // under 20 ms at p99, which catches hangs and per-call reconnect storms
  // without flaking on scheduler jitter.
  constexpr double kSocketP99BudgetUs = 20000.0;
  const size_t rpc_records = std::min<size_t>(records, 5000);
  const size_t rpc_ops = std::max<size_t>(ops * 25, 2000);
  printf("%s", Banner("RPC seam overhead: point reads, in-process vs "
                      "loopback socket")
                   .c_str());
  ReportTable rpc_table({"nodes", "transport", "ops/s", "p50", "p99"});
  double worst_socket_p99 = 0;
  for (const size_t n : {size_t(1), size_t(4)}) {
    for (const gdpr::cluster::ClusterTransport transport :
         {gdpr::cluster::ClusterTransport::kInProcess,
          gdpr::cluster::ClusterTransport::kLoopbackSocket}) {
      const SweepPoint pt =
          MeasurePointReads(n, transport, rpc_records, rpc_ops);
      const char* tname =
          transport == gdpr::cluster::ClusterTransport::kInProcess ? "inproc"
                                                             : "socket";
      if (transport == gdpr::cluster::ClusterTransport::kLoopbackSocket) {
        worst_socket_p99 = std::max(worst_socket_p99, pt.p99_us);
      }
      rpc_table.AddRow({gdpr::StringPrintf("%zu", n), tname,
                        gdpr::StringPrintf("%.0f", pt.ops_per_sec),
                        gdpr::HumanMicros(int64_t(pt.p50_us)),
                        gdpr::HumanMicros(int64_t(pt.p99_us))});
      printf("%s\n",
             BenchResultJson(
                 gdpr::StringPrintf("cluster-rpc-%zunode-%s", n, tname),
                 pt.ops_per_sec, pt.p50_us, pt.p99_us)
                 .c_str());
    }
  }
  printf("\n%s\n", rpc_table.Render().c_str());
  printf("socket point-read p99: %.0f us (gate: <= %.0f us)\n\n",
         worst_socket_p99, kSocketP99BudgetUs);

  const bool rebalance_ok = RunLiveRebalanceCheck(std::min<size_t>(
      records, 20000));

  bool pass = rebalance_ok;
  if (cores >= 4 && speedup < 2.0) pass = false;
  if (worst_socket_p99 > kSocketP99BudgetUs) pass = false;
  printf("\n%s\n", pass ? "CLUSTER SCALE: PASS" : "CLUSTER SCALE: FAIL");
  return pass ? 0 : 1;
}
