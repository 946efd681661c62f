// YCSB core workloads A-F over the KV and relational engines — the
// "traditional workload" half of the paper's comparisons (Fig 4/6/7/8).
// Adapters map the YCSB surface (insert/read/update/scan) onto each store;
// the runner drives them from N threads with zipfian/latest key choice.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/distributions.h"
#include "common/random.h"
#include "common/string_util.h"
#include "kvstore/db.h"
#include "relstore/database.h"
#include "storage/env.h"

namespace gdpr::bench {

struct YcsbSpec {
  std::string name;
  double read = 0, update = 0, insert = 0, scan = 0, rmw = 0;
  bool latest = false;  // workload D: reads target recent inserts
  size_t max_scan_len = 100;
};

inline YcsbSpec YcsbWorkloadA() { return {"A", 0.5, 0.5, 0, 0, 0}; }
inline YcsbSpec YcsbWorkloadB() { return {"B", 0.95, 0.05, 0, 0, 0}; }
inline YcsbSpec YcsbWorkloadC() { return {"C", 1.0, 0, 0, 0, 0}; }
inline YcsbSpec YcsbWorkloadD() { return {"D", 0.95, 0, 0.05, 0, 0, true}; }
inline YcsbSpec YcsbWorkloadE() { return {"E", 0, 0, 0.05, 0.95, 0}; }
inline YcsbSpec YcsbWorkloadF() { return {"F", 0.5, 0, 0, 0, 0.5}; }

inline const std::vector<YcsbSpec>& AllYcsbWorkloads() {
  static const std::vector<YcsbSpec> kAll = {YcsbWorkloadA(), YcsbWorkloadB(),
                                             YcsbWorkloadC(), YcsbWorkloadD(),
                                             YcsbWorkloadE(), YcsbWorkloadF()};
  return kAll;
}

struct YcsbResult {
  size_t ops = 0;
  int64_t completion_micros = 0;
  double throughput_ops_sec() const {
    return completion_micros > 0 ? double(ops) * 1e6 / double(completion_micros)
                                 : 0;
  }
};

class YcsbAdapter {
 public:
  virtual ~YcsbAdapter() = default;
  virtual Status Insert(const std::string& key, const std::string& value) = 0;
  virtual Status Read(const std::string& key, std::string* value) = 0;
  virtual Status Update(const std::string& key, const std::string& value) = 0;
  // Reads `count` records starting at `first_ordinal`. The default emulates
  // a range scan with point reads (hash stores have no order).
  virtual size_t Scan(size_t first_ordinal, size_t count) {
    std::string v;
    size_t got = 0;
    for (size_t i = 0; i < count; ++i) {
      if (Read(OrdinalKey(first_ordinal + i), &v).ok()) ++got;
    }
    return got;
  }

  static std::string OrdinalKey(size_t i) {
    return StringPrintf("user%012zu", i);
  }
};

class MemKvYcsbAdapter : public YcsbAdapter {
 public:
  explicit MemKvYcsbAdapter(kv::MemKV* db, int64_t ttl_micros = 0)
      : db_(db), ttl_micros_(ttl_micros) {}

  Status Insert(const std::string& key, const std::string& value) override {
    return ttl_micros_ > 0 ? db_->SetWithTtl(key, value, ttl_micros_)
                           : db_->Set(key, value);
  }
  Status Read(const std::string& key, std::string* value) override {
    auto v = db_->Get(key);
    if (!v.ok()) return v.status();
    *value = std::move(v.value());
    return Status::OK();
  }
  Status Update(const std::string& key, const std::string& value) override {
    return Insert(key, value);
  }

 private:
  kv::MemKV* db_;
  int64_t ttl_micros_;
};

class RelYcsbAdapter : public YcsbAdapter {
 public:
  static StatusOr<std::unique_ptr<RelYcsbAdapter>> Create(
      rel::Database* db, bool with_expiry = false) {
    std::vector<rel::ColumnSpec> cols = {{"k", rel::ValueType::kString},
                                         {"v", rel::ValueType::kString}};
    if (with_expiry) cols.push_back({"expiry", rel::ValueType::kInt64});
    auto t = db->CreateTable("usertable", rel::Schema(std::move(cols)));
    if (!t.ok()) return t.status();
    Status s = db->CreateIndex("usertable", "k");
    if (!s.ok()) return s;
    return std::unique_ptr<RelYcsbAdapter>(
        new RelYcsbAdapter(db, t.value(), with_expiry));
  }

  Status Insert(const std::string& key, const std::string& value) override {
    rel::Row row = {rel::Value(key), rel::Value(value)};
    if (with_expiry_) {
      row.push_back(
          rel::Value(db_->clock()->NowMicros() + 24ll * 3600 * 1000000));
    }
    return db_->Insert(table_, std::move(row));
  }
  Status Read(const std::string& key, std::string* value) override {
    auto rows = db_->Select(
        table_, rel::Compare(0, rel::CompareOp::kEq, rel::Value(key)), 1);
    if (!rows.ok()) return rows.status();
    if (rows.value().empty()) return Status::NotFound(key);
    *value = rows.value()[0][1].AsString();
    return Status::OK();
  }
  Status Update(const std::string& key, const std::string& value) override {
    auto n = db_->Update(
        table_, rel::Compare(0, rel::CompareOp::kEq, rel::Value(key)),
        [&](rel::Row* row) { (*row)[1] = rel::Value(value); });
    if (!n.ok()) return n.status();
    return n.value() > 0 ? Status::OK() : Status::NotFound(key);
  }
  size_t Scan(size_t first_ordinal, size_t count) override {
    // Real indexed range scan over the key B+tree.
    auto rows = db_->Select(
        table_,
        rel::Compare(0, rel::CompareOp::kGe,
                     rel::Value(OrdinalKey(first_ordinal))),
        count);
    return rows.ok() ? rows.value().size() : 0;
  }

 private:
  RelYcsbAdapter(rel::Database* db, rel::Table* table, bool with_expiry)
      : db_(db), table_(table), with_expiry_(with_expiry) {}

  rel::Database* db_;
  rel::Table* table_;
  bool with_expiry_;
};

class YcsbRunner {
 public:
  YcsbRunner(YcsbAdapter* adapter, size_t records, size_t value_bytes)
      : adapter_(adapter), records_(records), value_bytes_(value_bytes),
        next_insert_(records) {}

  YcsbResult Load(size_t threads) {
    const size_t nthreads = std::max<size_t>(1, threads);
    const int64_t start = RealClock::Default()->NowMicros();
    std::vector<std::thread> workers;
    for (size_t t = 0; t < nthreads; ++t) {
      workers.emplace_back([this, t, nthreads] {
        Random rng(0x10ad + t);
        for (size_t i = t; i < records_; i += nthreads) {
          adapter_->Insert(YcsbAdapter::OrdinalKey(i),
                           rng.NextAsciiField(value_bytes_))
              .ok();
        }
      });
    }
    for (auto& w : workers) w.join();
    YcsbResult r;
    r.ops = records_;
    r.completion_micros = RealClock::Default()->NowMicros() - start;
    return r;
  }

  YcsbResult Run(const YcsbSpec& spec, size_t ops, size_t threads) {
    const size_t nthreads = std::max<size_t>(1, threads);
    const size_t per_thread = (ops + nthreads - 1) / nthreads;
    const ZipfianDistribution zipf(records_ ? records_ : 1);
    const int64_t start = RealClock::Default()->NowMicros();
    std::vector<std::thread> workers;
    for (size_t t = 0; t < nthreads; ++t) {
      workers.emplace_back([this, &spec, &zipf, t, per_thread] {
        Random rng(0xbeef + t * 7919);
        std::string value_buf;
        for (size_t i = 0; i < per_thread; ++i) {
          RunOne(spec, zipf, rng, &value_buf);
        }
      });
    }
    for (auto& w : workers) w.join();
    YcsbResult r;
    r.ops = per_thread * nthreads;
    r.completion_micros = RealClock::Default()->NowMicros() - start;
    return r;
  }

 private:
  size_t ChooseKey(const YcsbSpec& spec, const ZipfianDistribution& zipf,
                   Random& rng) const {
    const size_t hi = next_insert_.load(std::memory_order_relaxed);
    if (spec.latest) {
      // Workload D: skew toward the most recent inserts.
      const size_t off = zipf.Next(rng);
      return hi > off + 1 ? hi - 1 - off : 0;
    }
    return zipf.Next(rng) % (hi ? hi : 1);
  }

  void RunOne(const YcsbSpec& spec, const ZipfianDistribution& zipf,
              Random& rng, std::string* value_buf) {
    const double p = rng.NextDouble();
    double acc = spec.read;
    if (p < acc) {
      adapter_->Read(YcsbAdapter::OrdinalKey(ChooseKey(spec, zipf, rng)),
                     value_buf)
          .ok();
      return;
    }
    acc += spec.update;
    if (p < acc) {
      adapter_->Update(YcsbAdapter::OrdinalKey(ChooseKey(spec, zipf, rng)),
                       rng.NextAsciiField(value_bytes_))
          .ok();
      return;
    }
    acc += spec.insert;
    if (p < acc) {
      const size_t id = next_insert_.fetch_add(1, std::memory_order_relaxed);
      adapter_->Insert(YcsbAdapter::OrdinalKey(id),
                       rng.NextAsciiField(value_bytes_))
          .ok();
      return;
    }
    acc += spec.scan;
    if (p < acc) {
      const size_t len = 1 + rng.Uniform(spec.max_scan_len);
      adapter_->Scan(ChooseKey(spec, zipf, rng), len);
      return;
    }
    // read-modify-write
    const std::string key =
        YcsbAdapter::OrdinalKey(ChooseKey(spec, zipf, rng));
    adapter_->Read(key, value_buf).ok();
    adapter_->Update(key, rng.NextAsciiField(value_bytes_)).ok();
  }

  YcsbAdapter* adapter_;
  size_t records_;
  size_t value_bytes_;
  std::atomic<size_t> next_insert_;
};

}  // namespace gdpr::bench
