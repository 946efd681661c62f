// statsdump: run a small mixed GDPR workload against a chosen backend and
// print its StatsSnapshot — the quickest way to see what the metrics layer
// exposes, and a smoke test that every layer actually records.
//
//   build/tools/statsdump [--backend=kv|rel|cluster] [--nodes=N]
//                         [--records=N] [--ops=N]
//                         [--format=table|prom|json]
//                         [--serve=ADDR | --connect=ADDR]
//
//   table  per-metric values plus histogram count/mean/p50/p99 (default)
//   prom   Prometheus exposition text (what a /metrics endpoint would serve)
//   json   one JSON object
//
// Cross-process mode (ADDR is "unix:/path.sock" or "tcp:host:port"):
//   --serve    run the workload, then keep an RpcServer on ADDR until
//              SIGINT/SIGTERM — any wire-protocol client can interrogate it
//   --connect  fetch a live process's RegistrySnapshot over the wire and
//              print it; no local store or workload at all

#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "cluster/cluster_store.h"
#include "common/string_util.h"
#include "gdpr/kv_backend.h"
#include "gdpr/rel_backend.h"
#include "net/rpc_server.h"
#include "net/socket_io.h"
#include "net/wire.h"

namespace gdpr {
namespace {

struct Args {
  std::string backend = "kv";
  std::string format = "table";
  std::string serve;
  std::string connect;
  size_t nodes = 4;
  size_t records = 500;
  size_t ops = 2000;
};

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const char* s = argv[i];
    if (strncmp(s, "--backend=", 10) == 0) a.backend = s + 10;
    else if (strncmp(s, "--format=", 9) == 0) a.format = s + 9;
    else if (strncmp(s, "--serve=", 8) == 0) a.serve = s + 8;
    else if (strncmp(s, "--connect=", 10) == 0) a.connect = s + 10;
    else if (strncmp(s, "--nodes=", 8) == 0) a.nodes = size_t(atoll(s + 8));
    else if (strncmp(s, "--records=", 10) == 0)
      a.records = size_t(atoll(s + 10));
    else if (strncmp(s, "--ops=", 6) == 0) a.ops = size_t(atoll(s + 6));
    else {
      printf(
          "usage: statsdump [--backend=kv|rel|cluster] [--nodes=N]\n"
          "                 [--records=N] [--ops=N] [--format=table|prom|"
          "json]\n"
          "                 [--serve=ADDR | --connect=ADDR]\n"
          "ADDR: unix:/path.sock or tcp:host:port\n");
      exit(s == std::string("--help") ? 0 : 2);
    }
  }
  return a;
}

std::unique_ptr<GdprStore> MakeStore(const Args& a) {
  ComplianceFlags flags;
  flags.audit_enabled = true;
  flags.metadata_indexing = true;
  if (a.backend == "kv") {
    KvGdprOptions o;
    o.compliance = flags;
    return std::make_unique<KvGdprStore>(o);
  }
  if (a.backend == "rel") {
    RelGdprOptions o;
    o.compliance = flags;
    return std::make_unique<RelGdprStore>(o);
  }
  if (a.backend == "cluster") {
    cluster::ClusterOptions o;
    o.nodes = a.nodes ? a.nodes : 1;
    o.compliance = flags;
    return std::make_unique<cluster::ClusterGdprStore>(o);
  }
  fprintf(stderr, "unknown backend '%s'\n", a.backend.c_str());
  exit(2);
}

GdprRecord MakeRecord(size_t i) {
  GdprRecord rec;
  rec.key = "user" + std::to_string(i);
  rec.data = "payload-" + std::to_string(i);
  rec.metadata.user = "owner" + std::to_string(i % 23);
  rec.metadata.purposes = {i % 2 ? "analytics" : "billing"};
  rec.metadata.shared_with = {"partner" + std::to_string(i % 5)};
  rec.metadata.origin = "statsdump";
  return rec;
}

// Exercise every op class once plus a point-op mix, so the dump shows a
// populated histogram per row of the Table 2 vocabulary.
void RunWorkload(GdprStore* store, const Args& a) {
  const Actor controller = Actor::Controller();
  const Actor regulator = Actor::Regulator();
  for (size_t i = 0; i < a.records; ++i) {
    store->CreateRecord(controller, MakeRecord(i)).ok();
  }
  for (size_t i = 0; i < a.ops; ++i) {
    const size_t k = (i * 40503u) % (a.records ? a.records : 1);
    const std::string key = "user" + std::to_string(k);
    switch (i % 7) {
      case 0: store->ReadDataByKey(controller, key).ok(); break;
      case 1: store->ReadMetadataByKey(controller, key).ok(); break;
      case 2:
        store->ReadMetadataByUser(controller,
                                  "owner" + std::to_string(k % 23)).ok();
        break;
      case 3: {
        MetadataUpdate u;
        u.origin = "statsdump-updated";
        store->UpdateMetadataByKey(controller, key, u).ok();
        break;
      }
      case 4: store->UpdateDataByKey(controller, key, "rewritten").ok(); break;
      case 5: store->VerifyDeletion(regulator, key).ok(); break;
      default: store->ReadMetadataByPurpose(controller, "billing").ok(); break;
    }
  }
  store->DeleteRecordByKey(controller, "user0").ok();
  store->DeleteRecordsByUser(controller, "owner1").ok();
  store->DeleteExpiredRecords(controller).ok();
  store->GetSystemLogs(regulator, 0, INT64_MAX).ok();
  store->GetFeatures(regulator).ok();
  // A denied op so gdpr_denied_total is nonzero in the dump.
  store->ReadDataByKey(Actor::Customer("owner2"), "user1").ok();
}

void PrintTable(const obs::RegistrySnapshot& snap) {
  printf("== counters ==\n");
  for (const auto& [name, v] : snap.counters) {
    printf("  %-56s %llu\n", name.c_str(), (unsigned long long)v);
  }
  printf("== gauges ==\n");
  for (const auto& [name, v] : snap.gauges) {
    printf("  %-56s %lld\n", name.c_str(), (long long)v);
  }
  printf("== histograms ==\n");
  printf("  %-52s %10s %10s %10s %10s\n", "name", "count", "mean_us",
         "p50_us", "p99_us");
  for (const auto& h : snap.histograms) {
    printf("  %-52s %10llu %10.1f %10.1f %10.1f\n", h.name.c_str(),
           (unsigned long long)h.count, h.Mean(), h.Percentile(50),
           h.Percentile(99));
  }
}

void PrintSnapshot(const obs::RegistrySnapshot& snap,
                   const std::string& format) {
  if (format == "prom") {
    fputs(snap.ToPrometheus().c_str(), stdout);
  } else if (format == "json") {
    printf("%s\n", snap.ToJson().c_str());
  } else {
    PrintTable(snap);
  }
}

std::atomic<bool> g_stop{false};
void OnSignal(int) { g_stop.store(true); }

// Keep a live RpcServer on the given address until signalled, so other
// processes can interrogate this one over the wire protocol.
int RunServe(const Args& a) {
  if (a.backend != "kv") {
    fprintf(stderr, "--serve wraps one node; it requires --backend=kv\n");
    return 2;
  }
  ComplianceFlags flags;
  flags.audit_enabled = true;
  flags.metadata_indexing = true;
  KvGdprOptions o;
  o.compliance = flags;
  KvGdprStore store(o);
  Status s = store.Open();
  if (!s.ok()) {
    fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }
  RunWorkload(&store, a);
  net::RpcServer server(&store);
  s = server.Start(a.serve);
  if (!s.ok()) {
    fprintf(stderr, "serve failed: %s\n", s.ToString().c_str());
    return 1;
  }
  signal(SIGINT, OnSignal);
  signal(SIGTERM, OnSignal);
  printf("serving on %s (SIGINT/SIGTERM to stop)\n", a.serve.c_str());
  fflush(stdout);
  while (!g_stop.load()) usleep(50 * 1000);
  server.Stop();
  store.Close().ok();
  return 0;
}

// One kStatsSnapshot round trip against a foreign process, straight over
// the wire — deliberately not via RemoteHandle, whose statsless degrade
// masks connection errors a human running a CLI wants to see.
int RunConnect(const Args& a) {
  std::string err;
  const int fd = net::Dial(a.connect, /*timeout_ms=*/5000, &err);
  if (fd < 0) {
    fprintf(stderr, "dial %s failed: %s\n", a.connect.c_str(), err.c_str());
    return 1;
  }
  net::WireRequest req;
  req.op = net::WireOp::kStatsSnapshot;
  req.actor = Actor::Regulator();
  Status s = net::WriteFrame(fd, net::EncodeRequest(req));
  std::string payload;
  if (s.ok()) s = net::ReadFrame(fd, &payload);
  net::CloseFd(fd);
  if (!s.ok()) {
    fprintf(stderr, "rpc to %s failed: %s\n", a.connect.c_str(),
            s.ToString().c_str());
    return 1;
  }
  net::WireResponse resp;
  s = net::DecodeResponse(payload, &resp);
  if (s.ok() && !resp.status.ok()) s = resp.status;
  if (!s.ok()) {
    fprintf(stderr, "snapshot from %s failed: %s\n", a.connect.c_str(),
            s.ToString().c_str());
    return 1;
  }
  PrintSnapshot(resp.snapshot, a.format);
  return 0;
}

int Main(int argc, char** argv) {
  const Args a = Parse(argc, argv);
  if (!a.serve.empty() && !a.connect.empty()) {
    fprintf(stderr, "--serve and --connect are mutually exclusive\n");
    return 2;
  }
  if (!a.serve.empty()) return RunServe(a);
  if (!a.connect.empty()) return RunConnect(a);
  auto store = MakeStore(a);
  Status s = store->Open();
  if (!s.ok()) {
    fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }
  RunWorkload(store.get(), a);
  PrintSnapshot(store->StatsSnapshot(), a.format);
  store->Close().ok();
  return 0;
}

}  // namespace
}  // namespace gdpr

int main(int argc, char** argv) { return gdpr::Main(argc, argv); }
