// google-benchmark micro suite for the core primitives: cipher and hash
// throughput, record parse/serialize, B+tree ops, zipfian generation,
// KV/relational point operations, the AEAD path (per reldb row and per
// HMAC tag), the two halves of a socket purpose answer (node and router),
// and a whole purpose answer on one store and on an in-process cluster.
// These are the unit costs the paper's macro numbers decompose into. The
// context block names the SHA-256 kernel the CPU selected.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/generator.h"
#include "cluster/cluster_store.h"
#include "common/clock.h"
#include "common/coding.h"
#include "common/distributions.h"
#include "common/random.h"
#include "common/string_util.h"
#include "crypto/aead.h"
#include "crypto/chacha20.h"
#include "crypto/sha256.h"
#include "gdpr/record.h"
#include "gdpr/kv_backend.h"
#include "kvstore/db.h"
#include "net/rpc_server.h"
#include "net/wire.h"
#include "relstore/bptree.h"
#include "relstore/database.h"

namespace gdpr {
namespace {

void BM_ChaCha20Throughput(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::string data(n, 'x');
  uint8_t key[32] = {1};
  uint8_t nonce[12] = {2};
  for (auto _ : state) {
    ChaCha20 c(key, nonce);
    c.Process(reinterpret_cast<uint8_t*>(data.data()), data.size());
    benchmark::DoNotOptimize(data);
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(n));
}
BENCHMARK(BM_ChaCha20Throughput)->Arg(64)->Arg(4096)->Arg(65536);

void BM_Sha256Throughput(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::string data(n, 'y');
  for (auto _ : state) {
    auto d = Sha256::Hash(data);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(n));
}
BENCHMARK(BM_Sha256Throughput)->Arg(64)->Arg(4096)->Arg(65536);

void BM_AeadSealOpen(benchmark::State& state) {
  Aead aead("bench-key");
  const std::string msg(static_cast<size_t>(state.range(0)), 'z');
  uint64_t seq = 0;
  for (auto _ : state) {
    const std::string sealed = aead.Seal(msg, seq++);
    auto opened = aead.Open(sealed);
    benchmark::DoNotOptimize(opened);
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_AeadSealOpen)->Arg(100)->Arg(1024);

// The block reldb seals per customer row: the seven string cells of
// RelGdprStore's gdpr_records (key, user, data, origin, purposes,
// objections, shared_with), each length-prefixed, in column order.
std::string CustomerRowBlock() {
  bench::DatasetConfig cfg;
  SimulatedClock clock;
  const GdprRecord rec = bench::RecordGenerator(cfg, &clock).Make(0);
  const GdprMetadata& m = rec.metadata;
  std::string block;
  for (const std::string& cell :
       {rec.key, m.user, rec.data, m.origin, JoinStrings(m.purposes, '|'),
        JoinStrings(m.objections, '|'), JoinStrings(m.shared_with, '|')}) {
    PutLengthPrefixed(&block, cell);
  }
  return block;
}

// Opening one reldb row: the AEAD cost of a point read with encrypt_at_rest.
void BM_AeadOpenRow(benchmark::State& state) {
  const Aead aead("reldb-at-rest-key");
  const std::string sealed = aead.Seal(CustomerRowBlock(), 1);
  for (auto _ : state) {
    auto plain = aead.Open(sealed);
    benchmark::DoNotOptimize(plain);
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_AeadOpenRow);

// Sealing one reldb row: the AEAD cost of an insert or update.
void BM_AeadSealRow(benchmark::State& state) {
  const Aead aead("reldb-at-rest-key");
  const std::string block = CustomerRowBlock();
  uint64_t seq = 1;
  for (auto _ : state) {
    std::string sealed = aead.Seal(block, seq++);
    benchmark::DoNotOptimize(sealed);
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_AeadSealRow);

// One tag under a cached key: 32 B is a short cell's seq + ciphertext, 108 B
// the 100-byte datum's.
void BM_HmacSha256(benchmark::State& state) {
  const HmacSha256Key key("bench-mac-key");
  const std::string msg(static_cast<size_t>(state.range(0)), 'm');
  for (auto _ : state) {
    auto tag = key.Mac(msg);
    benchmark::DoNotOptimize(tag);
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(32)->Arg(108);

void BM_RecordSerialize(benchmark::State& state) {
  bench::DatasetConfig cfg;
  SimulatedClock clock;
  bench::RecordGenerator gen(cfg, &clock);
  const GdprRecord rec = gen.Make(7);
  for (auto _ : state) {
    std::string s = rec.Serialize();
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_RecordSerialize);

void BM_RecordParse(benchmark::State& state) {
  bench::DatasetConfig cfg;
  SimulatedClock clock;
  bench::RecordGenerator gen(cfg, &clock);
  const std::string wire = gen.Make(7).Serialize();
  for (auto _ : state) {
    auto rec = GdprRecord::Parse(wire);
    benchmark::DoNotOptimize(rec);
  }
}
BENCHMARK(BM_RecordParse);

void BM_BPlusTreeInsert(benchmark::State& state) {
  Random rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    rel::BPlusTree tree;
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      tree.Insert(rel::Value(int64_t(rng.Next() % 1000000)), uint64_t(i) + 1);
    }
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_BPlusTreeInsert)->Arg(1000)->Arg(10000);

void BM_BPlusTreeLookup(benchmark::State& state) {
  rel::BPlusTree tree;
  Random rng(5);
  for (int i = 0; i < 100000; ++i) {
    tree.Insert(rel::Value(int64_t(i)), uint64_t(i) + 1);
  }
  for (auto _ : state) {
    const int64_t k = int64_t(rng.Uniform(100000));
    size_t hits = 0;
    tree.ScanEqual(rel::Value(k), [&](uint64_t) {
      ++hits;
      return true;
    });
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_BPlusTreeLookup);

void BM_ZipfianNext(benchmark::State& state) {
  ZipfianDistribution dist(1000000);
  Random rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist.Next(rng));
  }
}
BENCHMARK(BM_ZipfianNext);

void BM_MemKvSetGet(benchmark::State& state) {
  kv::Options o;
  kv::MemKV db(o);
  db.Open().ok();
  Random rng(9);
  for (int i = 0; i < 10000; ++i) {
    db.Set("key-" + std::to_string(i), "value").ok();
  }
  for (auto _ : state) {
    const std::string key = "key-" + std::to_string(rng.Uniform(10000));
    benchmark::DoNotOptimize(db.Get(key));
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_MemKvSetGet);

void BM_RelIndexedSelect(benchmark::State& state) {
  rel::Database db((rel::RelOptions()));
  db.Open().ok();
  auto t = db.CreateTable("t", rel::Schema({{"k", rel::ValueType::kString},
                                            {"v", rel::ValueType::kString}}));
  db.CreateIndex("t", "k").ok();
  for (int i = 0; i < 10000; ++i) {
    db.Insert(t.value(), {rel::Value("key-" + std::to_string(i)),
                          rel::Value("v")})
        .ok();
  }
  Random rng(11);
  for (auto _ : state) {
    auto rows = db.Select(
        t.value(),
        rel::Compare(0, rel::CompareOp::kEq,
                     rel::Value("key-" + std::to_string(rng.Uniform(10000)))),
        1);
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_RelIndexedSelect);

void BM_KvMetadataScan(benchmark::State& state) {
  // The O(n) cost of a metadata query on the KV store: the unit behind
  // Fig 5a/7b.
  kv::Options o;
  kv::MemKV db(o);
  db.Open().ok();
  SimulatedClock clock;
  bench::DatasetConfig cfg;
  bench::RecordGenerator gen(cfg, &clock);
  const size_t n = static_cast<size_t>(state.range(0));
  for (size_t i = 0; i < n; ++i) {
    const GdprRecord rec = gen.Make(i);
    db.Set(rec.key, rec.Serialize()).ok();
  }
  for (auto _ : state) {
    size_t matches = 0;
    db.Scan([&](const std::string&, const std::string& value) {
      auto rec = GdprRecord::Parse(value);
      if (rec.ok() && rec.value().metadata.user == "user-000001") ++matches;
      return true;
    });
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(n));
}
BENCHMARK(BM_KvMetadataScan)->Arg(1000)->Arg(10000);

// ---- a socket purpose answer, half by half ---------------------------------
// One cluster node's store: a quarter of a 100k-record dataset, indexed, so
// a purpose holds about 390 records. The clock stands still, so no record
// expires and every answer is whole.
constexpr size_t kNodeRecords = 25000;

struct NodeStore {
  SimulatedClock clock;
  bench::DatasetConfig cfg;
  std::unique_ptr<KvGdprStore> store;

  NodeStore() {
    KvGdprOptions o;
    o.clock = &clock;
    o.compliance.metadata_indexing = true;
    store = std::make_unique<KvGdprStore>(o);
    store->Open().ok();
    bench::RecordGenerator gen(cfg, &clock);
    for (size_t i = 0; i < kNodeRecords; ++i) {
      store->CreateRecord(Actor::Controller(), gen.Make(i)).ok();
    }
  }
  // A processor's purpose query, as the router sends it.
  net::WireRequest PurposeQuery(size_t i) const {
    net::WireRequest req;
    req.op = net::WireOp::kReadMetaPurpose;
    req.key = bench::RecordGenerator(cfg, nullptr).PurposeOf(i);
    req.actor = Actor::Processor("proc-01", req.key);
    return req;
  }
};

NodeStore& Node() {
  static NodeStore* node = new NodeStore();
  return *node;
}

// Reports the time per record: records / s, inverted, printed as
// per_record=<t>ns.
void PerRecord(benchmark::State& state, size_t records) {
  state.counters["per_record"] = benchmark::Counter(
      double(records),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

// The node's half: the server's dispatch of a purpose query (the policy
// walk over the stored images) and the response encode, rotating over the
// purposes.
void BM_NodeAnswerDispatchEncode(benchmark::State& state) {
  NodeStore& node = Node();
  size_t records = 0, i = 0;
  for (auto _ : state) {
    const net::WireResponse resp =
        net::DispatchRequest(node.store.get(), node.PurposeQuery(i++));
    const std::string payload = net::EncodeResponse(resp);
    records += resp.images.count + resp.records.size();
    benchmark::DoNotOptimize(payload.data());
    benchmark::ClobberMemory();
  }
  PerRecord(state, records);
}
BENCHMARK(BM_NodeAnswerDispatchEncode);

// The router's half: the response decode (the answer's one parse) and its
// hand-off to the vector a cluster part stages (RemoteHandle swaps the
// decoded records in), over the same answers.
void BM_RouterAnswerDecodeDeliver(benchmark::State& state) {
  NodeStore& node = Node();
  std::vector<std::string> payloads;
  for (size_t p = 0; p < node.cfg.purposes; ++p) {
    payloads.push_back(net::EncodeResponse(
        net::DispatchRequest(node.store.get(), node.PurposeQuery(p))));
  }
  size_t records = 0, i = 0;
  for (auto _ : state) {
    net::WireResponse resp;
    net::DecodeResponse(payloads[i++ % payloads.size()], &resp).ok();
    std::vector<GdprRecord> part;
    part.swap(resp.records);
    records += part.size();
    benchmark::DoNotOptimize(part.data());
    benchmark::ClobberMemory();
  }
  PerRecord(state, records);
}
BENCHMARK(BM_RouterAnswerDecodeDeliver);

// ---- a whole purpose answer -------------------------------------------------
// The whole 100k-record dataset, indexed, on one store and on a 4-node
// in-process cluster: a purpose answer is about 1,563 records on either.
// The clock stands still, so no record expires.
constexpr size_t kDatasetRecords = 100000;

SimulatedClock* StillClock() {
  static SimulatedClock* clock = new SimulatedClock();
  return clock;
}

GdprStore* Loaded(std::unique_ptr<GdprStore> store) {
  store->Open().ok();
  bench::RecordGenerator gen(bench::DatasetConfig(), StillClock());
  for (size_t i = 0; i < kDatasetRecords; ++i) {
    store->CreateRecord(Actor::Controller(), gen.Make(i)).ok();
  }
  return store.release();
}

GdprStore& SingleStore() {
  static GdprStore* store = [] {
    KvGdprOptions o;
    o.clock = StillClock();
    o.compliance.metadata_indexing = true;
    return Loaded(std::make_unique<KvGdprStore>(o));
  }();
  return *store;
}

GdprStore& InProcessCluster() {
  static GdprStore* store = [] {
    cluster::ClusterOptions o;
    o.nodes = 4;
    o.clock = StillClock();
    o.compliance.metadata_indexing = true;
    return Loaded(std::make_unique<cluster::ClusterGdprStore>(o));
  }();
  return *store;
}

// A processor's purpose query, each thread rotating over the purposes from
// its own start. per_record is the process's CPU time (a cluster's fan-out
// pool included) per delivered record.
void PurposeAnswer(benchmark::State& state, GdprStore& store) {
  const bench::RecordGenerator gen(bench::DatasetConfig(), nullptr);
  size_t records = 0, i = size_t(state.thread_index()) * 16;
  for (auto _ : state) {
    const std::string purpose = gen.PurposeOf(i++);
    const auto answer =
        store.ReadMetadataByPurpose(Actor::Processor("proc-01", purpose),
                                    purpose);
    records += answer.ok() ? answer.value().size() : 0;
    benchmark::DoNotOptimize(answer);
  }
  PerRecord(state, records);
}

void BM_StorePurposeAnswer(benchmark::State& state) {
  PurposeAnswer(state, SingleStore());
}
BENCHMARK(BM_StorePurposeAnswer)
    ->MeasureProcessCPUTime()
    ->Threads(1)
    ->Threads(4);

void BM_ClusterPurposeAnswer(benchmark::State& state) {
  PurposeAnswer(state, InProcessCluster());
}
BENCHMARK(BM_ClusterPurposeAnswer)
    ->MeasureProcessCPUTime()
    ->Threads(1)
    ->Threads(4);

}  // namespace
}  // namespace gdpr

int main(int argc, char** argv) {
  // Which SHA-256 block kernel the hash, HMAC and AEAD rows ran on.
  benchmark::AddCustomContext(
      "sha256_kernel",
      gdpr::Sha256::KernelName(gdpr::Sha256::SelectedKernel()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
