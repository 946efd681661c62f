// GDPRbench-style runner (the paper's §5 benchmark): four role workloads —
// controller, customer, processor, regulator — expressed as op mixes over
// the GDPR API, driven from N threads with per-op latency capture and a
// correctness tally.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/generator.h"
#include "bench/report.h"
#include "common/distributions.h"
#include "gdpr/store.h"

namespace gdpr::bench {

enum class GdprOp {
  kCreateRecord,
  kReadDataByKey,
  kReadMetadataByKey,
  kReadMetadataByUser,
  kReadMetadataByPurpose,
  kReadMetadataBySharing,
  kUpdateMetadataByKey,
  kUpdateDataByKey,
  kDeleteRecordByKey,
  kDeleteRecordsByUser,
  kVerifyDeletion,
  kGetSystemLogs,
  kGetFeatures,
};

struct WorkloadSpec {
  enum class Issuer { kController, kCustomer, kProcessor, kRegulator };

  std::string name;
  Issuer issuer = Issuer::kController;
  DistributionKind distribution = DistributionKind::kZipfian;
  std::vector<std::pair<GdprOp, double>> mix;  // op -> weight (any scale)
};

// The paper's four core workloads (§5.3).
inline WorkloadSpec ControllerWorkload() {
  WorkloadSpec w;
  w.name = "controller";
  w.issuer = WorkloadSpec::Issuer::kController;
  w.mix = {{GdprOp::kReadMetadataByKey, 50.0},
           {GdprOp::kUpdateMetadataByKey, 50.0}};
  return w;
}

inline WorkloadSpec CustomerWorkload() {
  WorkloadSpec w;
  w.name = "customer";
  w.issuer = WorkloadSpec::Issuer::kCustomer;
  w.mix = {{GdprOp::kReadDataByKey, 30.0},
           {GdprOp::kReadMetadataByKey, 20.0},
           {GdprOp::kReadMetadataByUser, 25.0},
           {GdprOp::kUpdateMetadataByKey, 15.0},
           {GdprOp::kDeleteRecordByKey, 8.0},
           {GdprOp::kDeleteRecordsByUser, 2.0}};
  return w;
}

inline WorkloadSpec ProcessorWorkload() {
  WorkloadSpec w;
  w.name = "processor";
  w.issuer = WorkloadSpec::Issuer::kProcessor;
  w.mix = {{GdprOp::kReadDataByKey, 60.0},
           {GdprOp::kReadMetadataByPurpose, 40.0}};
  return w;
}

inline WorkloadSpec RegulatorWorkload() {
  WorkloadSpec w;
  w.name = "regulator";
  w.issuer = WorkloadSpec::Issuer::kRegulator;
  w.mix = {{GdprOp::kGetSystemLogs, 30.0},
           {GdprOp::kVerifyDeletion, 30.0},
           {GdprOp::kReadMetadataBySharing, 30.0},
           {GdprOp::kGetFeatures, 10.0}};
  return w;
}

inline const std::vector<WorkloadSpec>& CoreWorkloads() {
  static const std::vector<WorkloadSpec> kAll = {
      ControllerWorkload(), CustomerWorkload(), ProcessorWorkload(),
      RegulatorWorkload()};
  return kAll;
}

// LatencyHistogram lives in bench/report.h, backed by obs::Histogram.

// Folds every per-op-class engine histogram (gdpr_op_us{op="..."}) in a
// snapshot delta into one distribution — the engine-side view of the same
// ops the client timed.
inline obs::HistogramSnapshot MergeEngineOpHistograms(
    const obs::RegistrySnapshot& delta) {
  obs::HistogramSnapshot all;
  all.name = "gdpr_op_us";
  for (const auto& h : delta.histograms) {
    if (h.name.rfind("gdpr_op_us{", 0) == 0) all.MergeFrom(h);
  }
  return all;
}

struct WorkloadResult {
  std::string workload;
  size_t ops = 0;
  size_t correct = 0;
  int64_t completion_micros = 0;
  // Snapshot, not the live histogram: results get copied into vectors and
  // the live object's atomics are not copyable.
  obs::HistogramSnapshot latency;

  double throughput_ops_sec() const {
    return completion_micros > 0 ? double(ops) * 1e6 / double(completion_micros)
                                 : 0;
  }
  // Fraction of ops that completed as expected (OK, or NotFound for keys
  // legitimately erased earlier in the workload).
  double correctness() const {
    return ops ? double(correct) / double(ops) : 1.0;
  }
};

struct RunConfig {
  size_t record_count = 10000;
  size_t op_count = 1000;
  size_t threads = 8;
  DatasetConfig dataset;
};

class GdprBenchRunner {
 public:
  // `label` is "<bench>-<store>" and names every result row
  // gdprbench-<label>-<workload>, so rows of different stores never collide.
  GdprBenchRunner(GdprStore* store, std::string label, const RunConfig& cfg)
      : store_(store), label_(std::move(label)), cfg_(cfg),
        gen_(cfg.dataset, store->clock()),
        zipf_(cfg.record_count ? cfg.record_count : 1),
        next_create_(cfg.record_count) {}

  // Populates an empty store with exactly record_count generated records.
  // A store that already holds records is refused: loading on top of them
  // would leave it with more than record_count.
  Status Load() {
    if (store_->RecordCount() != 0) {
      return Status::FailedPrecondition("load needs an empty store");
    }
    const size_t nthreads = std::max<size_t>(1, cfg_.threads);
    std::atomic<bool> failed{false};
    std::vector<std::thread> workers;
    for (size_t t = 0; t < nthreads; ++t) {
      workers.emplace_back([this, t, nthreads, &failed] {
        const Actor controller = Actor::Controller();
        for (size_t i = t; i < cfg_.record_count; i += nthreads) {
          if (!store_->CreateRecord(controller, gen_.Make(i)).ok()) {
            failed.store(true);
            return;
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    next_create_.store(cfg_.record_count);
    return failed.load() ? Status::Internal("load failed") : Status::OK();
  }

  WorkloadResult Run(const WorkloadSpec& spec) {
    const size_t nthreads = std::max<size_t>(1, cfg_.threads);
    const size_t per_thread = (cfg_.op_count + nthreads - 1) / nthreads;
    std::vector<LatencyHistogram> lat(nthreads);
    std::vector<size_t> correct(nthreads, 0);
    const obs::RegistrySnapshot engine_before = store_->StatsSnapshot();
    const int64_t start = RealClock::Default()->NowMicros();
    std::vector<std::thread> workers;
    for (size_t t = 0; t < nthreads; ++t) {
      workers.emplace_back([this, &spec, &lat, &correct, t, per_thread] {
        Random rng(0x6d9f + t * 104729);
        for (size_t i = 0; i < per_thread; ++i) {
          const int64_t op_start = RealClock::Default()->NowMicros();
          const bool ok = RunOne(spec, rng);
          lat[t].Add(RealClock::Default()->NowMicros() - op_start);
          if (ok) ++correct[t];
        }
      });
    }
    for (auto& w : workers) w.join();
    WorkloadResult r;
    r.workload = spec.name;
    r.ops = per_thread * nthreads;
    r.completion_micros = RealClock::Default()->NowMicros() - start;
    for (size_t t = 0; t < nthreads; ++t) {
      r.latency.MergeFrom(lat[t].Snapshot());
      r.correct += correct[t];
    }
    // Engine-side view of the same window: delta the store's own op
    // histograms across the run and report their percentiles alongside the
    // client-observed ones.
    const obs::RegistrySnapshot engine_delta =
        store_->StatsSnapshot().Delta(engine_before);
    const obs::HistogramSnapshot engine_ops =
        MergeEngineOpHistograms(engine_delta);
    printf("%s\n", BenchResultJson("gdprbench-" + label_ + "-" + spec.name,
                                   r.throughput_ops_sec(),
                                   r.latency.Percentile(50),
                                   r.latency.Percentile(99),
                                   engine_ops.Percentile(50),
                                   engine_ops.Percentile(99))
                       .c_str());
    return r;
  }

  // Table 3: resident bytes / personal-data bytes.
  double SpaceFactor() {
    const double personal =
        double(cfg_.record_count) * double(cfg_.dataset.data_bytes);
    return personal > 0 ? double(store_->TotalBytes()) / personal : 0;
  }

 private:
  size_t PickOrdinal(const WorkloadSpec& spec, Random& rng) const {
    if (spec.distribution == DistributionKind::kUniform) {
      return rng.Uniform(cfg_.record_count ? cfg_.record_count : 1);
    }
    return zipf_.Next(rng);
  }

  GdprOp PickOp(const WorkloadSpec& spec, Random& rng) const {
    double total = 0;
    for (const auto& [op, w] : spec.mix) total += w;
    double p = rng.NextDouble() * total;
    for (const auto& [op, w] : spec.mix) {
      if (p < w) return op;
      p -= w;
    }
    return spec.mix.back().first;
  }

  bool RunOne(const WorkloadSpec& spec, Random& rng) {
    const size_t i = PickOrdinal(spec, rng);
    Actor actor = Actor::Controller();
    switch (spec.issuer) {
      case WorkloadSpec::Issuer::kController: break;
      case WorkloadSpec::Issuer::kCustomer:
        actor = Actor::Customer(gen_.UserOf(i));
        break;
      case WorkloadSpec::Issuer::kProcessor:
        actor = Actor::Processor("proc-01", gen_.PurposeOf(i));
        break;
      case WorkloadSpec::Issuer::kRegulator:
        actor = Actor::Regulator();
        break;
    }
    // A NotFound is an expected outcome once deletes have run: the op
    // addressed a key that was legitimately erased.
    auto acceptable = [](const Status& s) { return s.ok() || s.IsNotFound(); };
    switch (PickOp(spec, rng)) {
      case GdprOp::kCreateRecord: {
        const size_t id = next_create_.fetch_add(1);
        return store_->CreateRecord(actor, gen_.Make(id)).ok();
      }
      case GdprOp::kReadDataByKey:
        return acceptable(store_->ReadDataByKey(actor, gen_.Key(i)).status());
      case GdprOp::kReadMetadataByKey:
        return acceptable(
            store_->ReadMetadataByKey(actor, gen_.Key(i)).status());
      case GdprOp::kReadMetadataByUser:
        return acceptable(
            store_->ReadMetadataByUser(actor, gen_.UserOf(i)).status());
      case GdprOp::kReadMetadataByPurpose:
        return acceptable(
            store_->ReadMetadataByPurpose(actor, gen_.PurposeOf(i)).status());
      case GdprOp::kReadMetadataBySharing:
        return acceptable(
            store_->ReadMetadataBySharing(actor, gen_.PartnerOf(i)).status());
      case GdprOp::kUpdateMetadataByKey: {
        MetadataUpdate u;
        if (spec.issuer == WorkloadSpec::Issuer::kCustomer) {
          // Consent withdrawal: tighten the retention deadline.
          u.expiry_micros =
              store_->clock()->NowMicros() + 7ll * 86400 * 1000000;
        } else {
          // Controller rotates the sharing set (touches the sharing index).
          u.shared_with = std::vector<std::string>{gen_.PartnerOf(i)};
        }
        return acceptable(store_->UpdateMetadataByKey(actor, gen_.Key(i), u));
      }
      case GdprOp::kUpdateDataByKey:
        return acceptable(store_->UpdateDataByKey(
            actor, gen_.Key(i),
            rng.NextAsciiField(cfg_.dataset.data_bytes)));
      case GdprOp::kDeleteRecordByKey:
        return acceptable(store_->DeleteRecordByKey(actor, gen_.Key(i)));
      case GdprOp::kDeleteRecordsByUser:
        return acceptable(
            store_->DeleteRecordsByUser(actor, gen_.UserOf(i)).status());
      case GdprOp::kVerifyDeletion:
        return store_->VerifyDeletion(actor, gen_.Key(i)).ok();
      case GdprOp::kGetSystemLogs: {
        const int64_t now = store_->clock()->NowMicros();
        return store_->GetSystemLogs(actor, now - 1000000, now).ok();
      }
      case GdprOp::kGetFeatures:
        return store_->GetFeatures(actor).ok();
    }
    return false;
  }

  GdprStore* store_;
  std::string label_;
  RunConfig cfg_;
  RecordGenerator gen_;
  ZipfianDistribution zipf_;
  std::atomic<size_t> next_create_;
};

}  // namespace gdpr::bench
