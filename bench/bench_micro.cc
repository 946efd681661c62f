// google-benchmark micro suite for the core primitives: cipher and hash
// throughput, record parse/serialize, B+tree ops, zipfian generation,
// KV/relational point operations, and the AEAD path (per reldb row and per
// HMAC tag). These are the unit costs the paper's macro numbers decompose
// into. The context block names the SHA-256 kernel the CPU selected.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/generator.h"
#include "common/clock.h"
#include "common/coding.h"
#include "common/distributions.h"
#include "common/random.h"
#include "common/string_util.h"
#include "crypto/aead.h"
#include "crypto/chacha20.h"
#include "crypto/sha256.h"
#include "gdpr/record.h"
#include "kvstore/db.h"
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
