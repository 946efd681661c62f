// gdprbench: one closed-loop GDPRbench run — one workload, one seed — over
// the engine's public GdprStore API.
//
//   gdprbench --workload=W [--seed=N] [--seconds=N] [--setups=N]
//             [--data-dir=DIR] [--trace=DIR]
//
// The run sets the store up (open + load) --setups times and drives each
// store with four closed-loop clients for a warm-up of 500 stream steps per
// client, then for an equal share of the --seconds timed window. Every
// answer is checked against the dataset. Each metric is printed as one JSON
// line on stdout:
//
//   {"workload":W,"seed":N,"metric":M,"value":V,"unit":U}
//
// With --trace the run also reports per-layer metrics — StatsSnapshot()
// deltas across the window plus single-threaded probes of public layer
// functions after it — and writes DIR/trace-W-N.json (Chrome trace events)
// and DIR/layers-W-N.jsonl. perfbench/README.md describes every metric.
//
// Exit status: 0 after a complete run (failed ops are reported, not fatal);
// 2 on bad flags; 3 when set-up, the load self-test or the end-of-run
// population check fails.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_store.h"
#include "common/distributions.h"
#include "crypto/aead.h"
#include "dataset.h"
#include "gdpr/kv_backend.h"
#include "gdpr/ops.h"
#include "gdpr/rel_backend.h"
#include "net/rpc_client.h"
#include "net/rpc_server.h"
#include "net/wire.h"

namespace perfbench {
namespace {

using gdpr::Actor;
using gdpr::GdprStore;
using gdpr::Status;

// Closed loop: each client sends its next op only when the previous one
// returns, with no think time. Four is the reference host's core count.
constexpr size_t kClients = 4;
// Unrecorded stream steps each client runs on each freshly loaded store
// before its window. A count, not a time, so that the memory measured
// after the first warm-up does not grow with throughput.
constexpr size_t kWarmupSteps = 500;
// Pre-generated ops per client, consumed across all windows of a run; a
// client that reaches the end wraps.
constexpr size_t kStreamOps = size_t(1) << 18;
// Probe calls per probed function; each probe metric is their median.
constexpr size_t kProbeCalls = 1000;
// Client spans written to the trace file (the first ones of each client).
constexpr size_t kMaxTraceSpans = 200000;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- op vocabulary -------------------------------------------------------

enum class Op : uint8_t {
  kCreate,
  kReadData,
  kReadMeta,
  kReadMetaUser,
  kReadMetaPurpose,
  kUpdateMeta,
  kDeleteKey,
  kDeleteUser,
  kCount
};
constexpr size_t kOps = size_t(Op::kCount);
const char* const kOpName[kOps] = {
    gdpr::ops::kCreate,       gdpr::ops::kReadData,
    gdpr::ops::kReadMeta,     gdpr::ops::kReadMetaUser,
    gdpr::ops::kReadMetaPurpose, gdpr::ops::kUpdateMeta,
    gdpr::ops::kDeleteKey,    gdpr::ops::kDeleteUser};

// Client-side op classes, the unit of the per-class latency metrics.
enum class OpClass : uint8_t { kRead, kWrite, kQuery, kErase, kCount };
constexpr size_t kClasses = size_t(OpClass::kCount);
const char* const kClassName[kClasses] = {"read", "write", "query", "erase"};

OpClass ClassOf(Op op) {
  switch (op) {
    case Op::kReadData:
    case Op::kReadMeta: return OpClass::kRead;
    case Op::kCreate:
    case Op::kUpdateMeta: return OpClass::kWrite;
    case Op::kReadMetaUser:
    case Op::kReadMetaPurpose: return OpClass::kQuery;
    case Op::kDeleteKey:
    case Op::kDeleteUser:
    case Op::kCount: break;
  }
  return OpClass::kErase;
}

// ---- workloads -----------------------------------------------------------

// Every store but kRel runs in memory, unencrypted; kRel is the fully
// compliant one (see MakeStore). The two clusters differ only in how the
// router reaches its four nodes.
enum class Engine { kKv, kRel, kClusterInProcess, kClusterSocket };

struct Workload {
  const char* name;
  Engine engine;
  Actor::Role role;
  std::vector<std::pair<Op, double>> mix;
};

// Customer mixes erase records; the erasing client re-creates what it
// erased (timed CREATE-RECORD ops) so the population stays stationary.
bool Churns(const Workload& w) { return w.role == Actor::Role::kCustomer; }

const std::vector<std::pair<Op, double>> kCustomerMix = {
    {Op::kReadData, 30},   {Op::kReadMeta, 20},  {Op::kReadMetaUser, 25},
    {Op::kUpdateMeta, 15}, {Op::kDeleteKey, 8},  {Op::kDeleteUser, 2}};
const std::vector<std::pair<Op, double>> kProcessorMix = {
    {Op::kReadData, 60}, {Op::kReadMetaPurpose, 40}};

const Workload kWorkloads[] = {
    {"controller-kv", Engine::kKv, Actor::Role::kController,
     {{Op::kReadMeta, 50}, {Op::kUpdateMeta, 50}}},
    {"customer-rel-everysec", Engine::kRel, Actor::Role::kCustomer,
     kCustomerMix},
    {"processor-cluster-inproc", Engine::kClusterInProcess,
     Actor::Role::kProcessor, kProcessorMix},
    {"processor-cluster-socket", Engine::kClusterSocket,
     Actor::Role::kProcessor, kProcessorMix},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::unique_ptr<GdprStore> MakeStore(const Workload& w,
                                     const std::string& dir) {
  gdpr::ComplianceFlags flags;
  flags.metadata_indexing = true;
  switch (w.engine) {
    case Engine::kKv: {
      gdpr::KvGdprOptions o;
      o.compliance = flags;
      return std::make_unique<gdpr::KvGdprStore>(o);
    }
    case Engine::kRel: {
      // Fully compliant: WAL and durable audit chain through the
      // group-commit pipeline, synced once a second, and at-rest encryption.
      gdpr::RelGdprOptions o;
      o.compliance = flags;
      o.compliance.encrypt_at_rest = true;
      o.rel.wal_enabled = true;
      o.rel.wal_path = dir + "/rel.wal";
      o.rel.sync_policy = gdpr::SyncPolicy::kEverySec;
      o.audit.path = dir + "/audit";
      return std::make_unique<gdpr::RelGdprStore>(o);
    }
    case Engine::kClusterInProcess:
    case Engine::kClusterSocket: {
      gdpr::cluster::ClusterOptions o;
      o.nodes = 4;
      o.compliance = flags;
      o.transport = w.engine == Engine::kClusterSocket
                        ? gdpr::cluster::ClusterTransport::kLoopbackSocket
                        : gdpr::cluster::ClusterTransport::kInProcess;
      return std::make_unique<gdpr::cluster::ClusterGdprStore>(o);
    }
  }
  return nullptr;
}

// ---- set-up --------------------------------------------------------------

// Loads ordinals [0, count) with kClients controller threads.
Status Load(GdprStore* store, const Dataset& ds, size_t count) {
  std::vector<Status> results(kClients);
  std::vector<std::thread> loaders;
  for (size_t t = 0; t < kClients; ++t) {
    loaders.emplace_back([&, t] {
      const Actor controller = Actor::Controller();
      for (size_t i = t; i < count; i += kClients) {
        Status s =
            store->CreateRecord(controller, ds.Make(i, store->clock()->NowMicros()));
        if (!s.ok()) {
          results[t] = s;
          return;
        }
      }
    });
  }
  for (auto& l : loaders) l.join();
  for (const Status& s : results) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

// Fast completeness self-test of a freshly loaded store: the record count,
// and one query per purpose and per partner returning exactly the dataset's
// population for it.
Status CheckLoaded(GdprStore* store, const Dataset& ds) {
  if (store->RecordCount() != ds.records) {
    return Status::Internal("RecordCount " +
                            std::to_string(store->RecordCount()) + " != " +
                            std::to_string(ds.records));
  }
  const Actor controller = Actor::Controller();
  for (size_t p = 0; p < ds.purposes; ++p) {
    auto r = store->ReadMetadataByPurpose(controller, ds.Purpose(p));
    if (!r.ok()) return r.status();
    if (r->size() != ds.PurposeCount(p)) {
      return Status::Internal(ds.Purpose(p) + " returned " +
                              std::to_string(r->size()) + " records, expected " +
                              std::to_string(ds.PurposeCount(p)));
    }
  }
  for (size_t t = 0; t < ds.partners; ++t) {
    auto r = store->ReadMetadataBySharing(controller, ds.Partner(t));
    if (!r.ok()) return r.status();
    if (r->size() != ds.PartnerCount(t)) {
      return Status::Internal(ds.Partner(t) + " returned " +
                              std::to_string(r->size()) + " records, expected " +
                              std::to_string(ds.PartnerCount(t)));
    }
  }
  return Status::OK();
}

// ---- the closed loop -----------------------------------------------------

struct Step {
  uint32_t ordinal;
  Op op;
  uint8_t arg;  // partner index for the controller's sharing rotation
};

enum class Outcome : uint8_t { kOk, kNotFound, kFailed };

// One timed op; in a traced run also one span.
struct Sample {
  int64_t start_ns;
  int64_t end_ns;
  uint32_t records;
  Op op;
  Outcome outcome;
};

struct Client {
  std::vector<Step> stream;
  size_t next = 0;  // the next stream step to execute
  std::vector<Sample> samples;
  std::string first_failure;
};

// StatsSnapshot() at the start and at the end of one window.
using WindowSnapshots =
    std::pair<gdpr::obs::RegistrySnapshot, gdpr::obs::RegistrySnapshot>;

// The (op, ordinal, argument) stream is drawn from the seed and the client
// id before anything is timed: zipfian ordinals (theta 0.99, as in
// GDPRbench) and ops by mix weight.
std::vector<Step> MakeStream(const Workload& w, const Dataset& ds,
                             uint64_t seed, size_t client) {
  gdpr::Random rng(seed * 1000003 + client);
  const gdpr::ZipfianDistribution zipf(ds.records);
  double total = 0;
  for (const auto& [op, weight] : w.mix) total += weight;
  std::vector<Step> stream(kStreamOps);
  for (Step& st : stream) {
    double p = rng.NextDouble() * total;
    st.op = w.mix.back().first;
    for (const auto& [op, weight] : w.mix) {
      if (p < weight) {
        st.op = op;
        break;
      }
      p -= weight;
    }
    st.ordinal = uint32_t(zipf.Next(rng));
    st.arg = uint8_t(rng.Uniform(ds.partners));
  }
  return stream;
}

class OpRunner {
 public:
  OpRunner(GdprStore* store, const Dataset& ds, const Workload& w)
      : store_(store), ds_(ds), w_(w), churn_(Churns(w)) {}

  // The warm-up: the client's next `steps` stream steps, unrecorded.
  void Warm(Client* c, size_t steps) {
    for (size_t k = 0; k < steps; ++k) Execute(NextStep(c), false, c);
  }

  // The timed window: stream steps from `begin_ns` until `deadline_ns`,
  // every op recorded.
  void Run(Client* c, int64_t begin_ns, int64_t deadline_ns) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(begin_ns)));
    while (NowNs() < deadline_ns) Execute(NextStep(c), true, c);
  }

 private:
  static const Step& NextStep(Client* c) {
    return c->stream[c->next++ % c->stream.size()];
  }

  Actor ActorFor(size_t i) const {
    switch (w_.role) {
      case Actor::Role::kCustomer: return Actor::Customer(ds_.UserOf(i));
      case Actor::Role::kProcessor:
        return Actor::Processor("proc-01", ds_.PurposeOf(i));
      case Actor::Role::kController:
      case Actor::Role::kRegulator: break;
    }
    return Actor::Controller();
  }

  // An op fails on any status but OK — except NotFound on the churning
  // workloads, where another client may have just erased the key — or on
  // an OK answer that does not check out.
  Outcome Judge(const Status& s, bool answer_ok) const {
    if (s.ok()) return answer_ok ? Outcome::kOk : Outcome::kFailed;
    return s.IsNotFound() && churn_ ? Outcome::kNotFound : Outcome::kFailed;
  }

  // A query answer checks out when every record matches the predicate and
  // the count is exact — or, while churn can have a record mid-re-create,
  // at most the dataset's population.
  bool CountOk(size_t got, size_t expected) const {
    return churn_ ? got <= expected : got == expected;
  }

  void Record(Client* c, Op op, int64_t start, int64_t end, uint32_t records,
              Outcome out, const Status& s, bool record) {
    if (!record) return;
    c->samples.push_back(Sample{start, end, records, op, out});
    if (out == Outcome::kFailed && c->first_failure.empty()) {
      c->first_failure = std::string(kOpName[size_t(op)]) + ": " +
                         (s.ok() ? "answer did not check out" : s.ToString());
    }
  }

  void Create(size_t i, bool record, Client* c) {
    const gdpr::GdprRecord rec = ds_.Make(i, store_->clock()->NowMicros());
    const int64_t start = NowNs();
    const Status s = store_->CreateRecord(ActorFor(i), rec);
    const int64_t end = NowNs();
    Record(c, Op::kCreate, start, end, 0, Judge(s, true), s, record);
  }

  void Execute(const Step& st, bool record, Client* c) {
    const size_t i = st.ordinal;
    const Actor actor = ActorFor(i);
    const std::string key = ds_.Key(i);
    // Arguments are built before the clock starts.
    gdpr::MetadataUpdate update;
    if (st.op == Op::kUpdateMeta) {
      if (w_.role == Actor::Role::kCustomer) {
        // Consent withdrawal: tighten the retention deadline to 7 days.
        update.expiry_micros =
            store_->clock()->NowMicros() + 7ll * 86400 * 1000000;
      } else {
        update.shared_with = std::vector<std::string>{ds_.Partner(st.arg)};
      }
    }
    const std::string user = ds_.UserOf(i);
    const std::string purpose = ds_.PurposeOf(i);

    Status s;
    uint32_t records = 0;
    bool answer_ok = true;
    const int64_t start = NowNs();
    int64_t end = 0;
    switch (st.op) {
      case Op::kReadData: {
        auto r = store_->ReadDataByKey(actor, key);
        end = NowNs();
        s = r.status();
        if (r.ok()) {
          records = 1;
          answer_ok = r->data == ds_.Data(i) && r->metadata.user == user;
        }
        break;
      }
      case Op::kReadMeta: {
        auto r = store_->ReadMetadataByKey(actor, key);
        end = NowNs();
        s = r.status();
        if (r.ok()) {
          records = 1;
          answer_ok = r->user == user;
        }
        break;
      }
      case Op::kReadMetaUser: {
        auto r = store_->ReadMetadataByUser(actor, user);
        end = NowNs();
        s = r.status();
        if (r.ok()) {
          records = uint32_t(r->size());
          answer_ok = CountOk(r->size(), ds_.OrdinalsOfUser(ds_.UserIndexOf(i)).size());
          for (const auto& rec : r.value()) answer_ok &= rec.metadata.user == user;
        }
        break;
      }
      case Op::kReadMetaPurpose: {
        auto r = store_->ReadMetadataByPurpose(actor, purpose);
        end = NowNs();
        s = r.status();
        if (r.ok()) {
          records = uint32_t(r->size());
          answer_ok = CountOk(r->size(), ds_.PurposeCount(i % ds_.purposes));
          for (const auto& rec : r.value()) answer_ok &= rec.metadata.HasPurpose(purpose);
        }
        break;
      }
      case Op::kUpdateMeta:
        s = store_->UpdateMetadataByKey(actor, key, update);
        end = NowNs();
        break;
      case Op::kDeleteKey:
        s = store_->DeleteRecordByKey(actor, key);
        end = NowNs();
        break;
      case Op::kDeleteUser: {
        auto r = store_->DeleteRecordsByUser(actor, user);
        end = NowNs();
        s = r.status();
        if (r.ok()) {
          records = uint32_t(r.value());
          answer_ok = r.value() <= ds_.OrdinalsOfUser(ds_.UserIndexOf(i)).size();
        }
        break;
      }
      case Op::kCreate:
      case Op::kCount:
        end = NowNs();
        s = Status::Internal("op not in any mix");
        break;
    }
    Record(c, st.op, start, end, records, Judge(s, answer_ok), s, record);

    if (!churn_) return;
    if (st.op == Op::kDeleteKey) {
      Create(i, record, c);
    } else if (st.op == Op::kDeleteUser) {
      for (size_t j : ds_.OrdinalsOfUser(ds_.UserIndexOf(i))) {
        Create(j, record, c);
      }
    }
  }

  GdprStore* store_;
  const Dataset& ds_;
  const Workload& w_;
  const bool churn_;
};

// Runs fn(&client) for every client, each on its own thread, and waits for
// all of them.
template <typename Fn>
void OnEveryClient(std::vector<Client>* clients, const Fn& fn) {
  std::vector<std::thread> threads;
  for (Client& c : *clients) threads.emplace_back([&fn, &c] { fn(&c); });
  for (auto& t : threads) t.join();
}

// One store's timed window: every client runs its stream for `seconds`,
// each op recorded. Returns the recorded span in seconds, up to the end of
// the last recorded op.
double RunWindow(OpRunner& runner, double seconds,
                 std::vector<Client>* clients) {
  // Threads start 20 ms ahead so that every client begins at begin_ns.
  const int64_t begin_ns = NowNs() + 20'000'000;
  const int64_t deadline_ns = begin_ns + int64_t(seconds * 1e9);
  OnEveryClient(clients,
                [&](Client* c) { runner.Run(c, begin_ns, deadline_ns); });
  // A client's ops run one after another, so its last sample ends last.
  int64_t last_end = begin_ns;
  for (const Client& c : *clients) {
    if (!c.samples.empty()) last_end = std::max(last_end, c.samples.back().end_ns);
  }
  return double(last_end - begin_ns) / 1e9;
}

// ---- metrics -------------------------------------------------------------

class Emitter {
 public:
  Emitter(std::string workload, uint64_t seed)
      : workload_(std::move(workload)), seed_(seed) {}

  void Emit(const std::string& metric, double value, const char* unit) {
    char line[512];
    snprintf(line, sizeof(line),
             "{\"workload\":\"%s\",\"seed\":%" PRIu64
             ",\"metric\":\"%s\",\"value\":%.12g,\"unit\":\"%s\"}",
             workload_.c_str(), seed_, metric.c_str(), value, unit);
    printf("%s\n", line);
    lines_.push_back(line);
  }

  // Lines emitted since mark (the per-layer block for layers-W-S.jsonl).
  size_t mark() const { return lines_.size(); }
  const std::vector<std::string>& lines() const { return lines_; }

 private:
  std::string workload_;
  uint64_t seed_;
  std::vector<std::string> lines_;
};

// Nearest-rank percentile of a sorted vector, in microseconds.
double PercentileUs(const std::vector<int64_t>& sorted_ns, double p) {
  if (sorted_ns.empty()) return 0;
  size_t rank = size_t(p / 100.0 * double(sorted_ns.size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, sorted_ns.size());
  return double(sorted_ns[rank - 1]) / 1e3;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// Client-side tallies over the timed window.
struct WindowStats {
  size_t attempted = 0;
  size_t failed = 0;
  size_t notfound = 0;
  size_t op_count[kOps] = {};
  uint64_t query_records = 0;
  double seconds = 0;
  std::vector<int64_t> all_ns;
  std::vector<int64_t> class_ns[kClasses];

  size_t Mutations() const {
    return op_count[size_t(Op::kCreate)] + op_count[size_t(Op::kUpdateMeta)] +
           op_count[size_t(Op::kDeleteKey)] + op_count[size_t(Op::kDeleteUser)];
  }
};

WindowStats Summarize(const std::vector<Client>& clients, double seconds) {
  WindowStats ws;
  ws.seconds = seconds;
  for (const Client& c : clients) {
    for (const Sample& s : c.samples) {
      const int64_t ns = s.end_ns - s.start_ns;
      ++ws.attempted;
      ++ws.op_count[size_t(s.op)];
      if (s.outcome == Outcome::kFailed) ++ws.failed;
      if (s.outcome == Outcome::kNotFound) ++ws.notfound;
      if (ClassOf(s.op) == OpClass::kQuery) ws.query_records += s.records;
      ws.all_ns.push_back(ns);
      ws.class_ns[size_t(ClassOf(s.op))].push_back(ns);
    }
  }
  std::sort(ws.all_ns.begin(), ws.all_ns.end());
  for (auto& v : ws.class_ns) std::sort(v.begin(), v.end());
  return ws;
}

void EmitEndToEnd(Emitter& out, const WindowStats& ws, double setup_s,
                  double space_factor, double peak_rss_mb) {
  out.Emit("throughput_ops_s", Ratio(double(ws.attempted), ws.seconds), "ops/s");
  out.Emit("p50_us", PercentileUs(ws.all_ns, 50), "us");
  out.Emit("p99_us", PercentileUs(ws.all_ns, 99), "us");
  for (size_t k = 0; k < kClasses; ++k) {
    if (ws.class_ns[k].empty()) continue;
    out.Emit(std::string(kClassName[k]) + "_p50_us",
             PercentileUs(ws.class_ns[k], 50), "us");
  }
  out.Emit("error_rate", Ratio(double(ws.failed), double(ws.attempted)),
           "fraction");
  out.Emit("setup_s", setup_s, "s");
  out.Emit("space_factor", space_factor, "ratio");
  out.Emit("peak_rss_mb", peak_rss_mb, "MB");
  out.Emit("attempted", double(ws.attempted), "count");
  out.Emit("failed", double(ws.failed), "count");
}

// ---- per-layer metrics ---------------------------------------------------

std::string OpHistName(Op op) {
  return std::string("gdpr_op_us{op=\"") + kOpName[size_t(op)] + "\"}";
}

double HistPercentile(const gdpr::obs::RegistrySnapshot& d,
                      const std::string& name, double p) {
  const gdpr::obs::HistogramSnapshot* h = d.FindHistogram(name);
  return h && h->count ? h->Percentile(p) : 0;
}

uint64_t HistCount(const gdpr::obs::RegistrySnapshot& d,
                   const std::string& name) {
  const gdpr::obs::HistogramSnapshot* h = d.FindHistogram(name);
  return h ? h->count : 0;
}

// Merges every histogram in `d` whose name starts with `prefix`.
gdpr::obs::HistogramSnapshot MergePrefix(const gdpr::obs::RegistrySnapshot& d,
                                         const std::string& prefix) {
  gdpr::obs::HistogramSnapshot all;
  for (const auto& h : d.histograms) {
    if (h.name.rfind(prefix, 0) == 0) all.MergeFrom(h);
  }
  return all;
}

void EmitStoreLayers(Emitter& out, const WindowStats& ws,
                     const std::vector<WindowSnapshots>& windows,
                     double live_ratio, const Dataset& ds) {
  // Counters and histograms add up over the windows; gauges are read at the
  // end of the last one.
  gdpr::obs::RegistrySnapshot d;
  double retired_nodes = 0;
  for (const auto& [before, after] : windows) {
    d.MergeFrom(after.Delta(before));
    retired_nodes += double(after.GaugeValue("gdpr_index_retired_nodes") -
                            before.GaugeValue("gdpr_index_retired_nodes"));
  }
  const gdpr::obs::RegistrySnapshot& after = windows.back().second;
  const double ops = double(ws.attempted);
  const double mutations = double(ws.Mutations());

  // gdpr: store-side time per op, the layer's own bookkeeping, and how
  // much each query returns.
  for (size_t k = 0; k < kOps; ++k) {
    out.Emit(std::string("gdpr.op_p50_us.") + kOpName[k],
             HistPercentile(d, OpHistName(Op(k)), 50), "us");
  }
  out.Emit("gdpr.forget_p50_us", HistPercentile(d, "gdpr_forget_e2e_us", 50),
           "us");
  out.Emit("gdpr.audit_appends_per_op",
           Ratio(double(d.CounterValue("audit_appends_total")), ops), "ratio");
  out.Emit("gdpr.records_per_query",
           Ratio(double(ws.query_records),
                 double(ws.class_ns[size_t(OpClass::kQuery)].size())),
           "count");

  // bench: what the client sees beyond the store's own op time — router,
  // wire, lock waits and scheduling.
  for (size_t k = 0; k < kClasses; ++k) {
    double store_p50 = 0;
    if (!ws.class_ns[k].empty()) {
      gdpr::obs::HistogramSnapshot merged;
      for (size_t op = 0; op < kOps; ++op) {
        if (size_t(ClassOf(Op(op))) != k) continue;
        if (const auto* h = d.FindHistogram(OpHistName(Op(op)))) {
          merged.MergeFrom(*h);
        }
      }
      store_p50 = merged.count ? merged.Percentile(50) : 0;
    }
    out.Emit(std::string("bench.client_minus_store_p50_us.") + kClassName[k],
             ws.class_ns[k].empty()
                 ? 0
                 : PercentileUs(ws.class_ns[k], 50) - store_p50,
             "us");
  }
  out.Emit("bench.notfound_share", Ratio(double(ws.notfound), ops), "fraction");
  out.Emit("bench.live_records_ratio", live_ratio, "ratio");
  out.Emit("bench.ops", ops, "count");

  // kvstore (MemKV, also under every cluster node).
  out.Emit("kvstore.get_p50_us", HistPercentile(d, "memkv_get_us", 50), "us");
  out.Emit("kvstore.set_p50_us", HistPercentile(d, "memkv_set_us", 50), "us");
  out.Emit("kvstore.delete_p50_us", HistPercentile(d, "memkv_delete_us", 50),
           "us");
  out.Emit("kvstore.index_retired_nodes_per_write",
           Ratio(retired_nodes, mutations), "ratio");
  out.Emit("kvstore.bytes_per_record",
           Ratio(double(after.GaugeValue("memkv_bytes")),
                 double(after.GaugeValue("memkv_entries"))),
           "bytes");
  out.Emit("kvstore.index_bytes_per_record",
           Ratio(double(after.GaugeValue("gdpr_index_bytes")), double(ds.records)),
           "bytes");
  out.Emit("kvstore.epoch_retired_backlog",
           double(after.GaugeValue("epoch_retired_backlog")), "count");

  // relstore.
  out.Emit("relstore.select_p50_us", HistPercentile(d, "reldb_select_us", 50),
           "us");
  out.Emit("relstore.insert_p50_us", HistPercentile(d, "reldb_insert_us", 50),
           "us");
  out.Emit("relstore.update_p50_us", HistPercentile(d, "reldb_update_us", 50),
           "us");
  out.Emit("relstore.delete_p50_us", HistPercentile(d, "reldb_delete_us", 50),
           "us");
  out.Emit("relstore.wal_bytes_per_write",
           Ratio(double(d.CounterValue("reldb_wal_append_bytes_total")),
                 mutations),
           "bytes");
  out.Emit("relstore.bytes_per_record",
           Ratio(double(after.GaugeValue("reldb_bytes")), double(ds.records)),
           "bytes");

  // storage: the group-commit pipeline under every log.
  out.Emit("storage.fsync_p50_us", HistPercentile(d, "commit_fsync_us", 50),
           "us");
  out.Emit("storage.fsyncs_per_write",
           Ratio(double(HistCount(d, "commit_fsync_us")), mutations), "ratio");
  out.Emit("storage.frames_per_batch",
           Ratio(double(d.CounterValue("commit_frames_total")),
                 double(d.CounterValue("commit_batches_total"))),
           "ratio");
  for (const char* log : {"audit", "rel-wal"}) {
    out.Emit(std::string("storage.stall_p50_us.") + log,
             HistPercentile(d, std::string("commit_stall_us{log=\"") + log + "\"}",
                            50),
             "us");
  }
  out.Emit("storage.bytes_per_user_byte",
           Ratio(double(d.CounterValue("commit_bytes_total")),
                 double(ws.op_count[size_t(Op::kCreate)] * ds.data_bytes)),
           "ratio");

  // cluster: per-node scatter-gather time; the slowest node sets the pace.
  double fan_min = 0, fan_max = 0;
  for (size_t n = 0; n < 4; ++n) {
    const double p50 = HistPercentile(
        d, "cluster_node_fanout_us{node=\"" + std::to_string(n) + "\"}", 50);
    out.Emit("cluster.fanout_p50_us.node" + std::to_string(n), p50, "us");
    fan_min = n == 0 ? p50 : std::min(fan_min, p50);
    fan_max = std::max(fan_max, p50);
  }
  out.Emit("cluster.fanout_skew", Ratio(fan_max, fan_min), "ratio");
  out.Emit("cluster.degraded_skips",
           double(d.CounterValue("cluster_degraded_skips_total")), "count");

  // net: the router's round trips to its nodes.
  const gdpr::obs::HistogramSnapshot rpc = MergePrefix(d, "cluster_rpc_us{");
  out.Emit("net.rpc_p50_us", rpc.count ? rpc.Percentile(50) : 0, "us");
  out.Emit("net.rpc_p99_us", rpc.count ? rpc.Percentile(99) : 0, "us");
  out.Emit("net.rpc_bytes_per_op",
           Ratio(double(d.CounterValue("cluster_rpc_bytes_total")), ops),
           "bytes");
}

// ---- probes --------------------------------------------------------------

struct Span {
  std::string name;
  int64_t start_ns;
  int64_t end_ns;
};

// Times `calls` invocations of fn(k) on this thread; returns the median in
// microseconds and appends one span per call.
double Probe(const std::string& name, size_t calls,
             const std::function<bool(size_t)>& fn, std::vector<Span>* spans,
             bool* ok) {
  std::vector<double> us;
  us.reserve(calls);
  for (size_t k = 0; k < calls; ++k) {
    const int64_t start = NowNs();
    const bool good = fn(k);
    const int64_t end = NowNs();
    *ok &= good;
    us.push_back(double(end - start) / 1e3);
    spans->push_back(Span{name, start, end});
  }
  return Median(std::move(us));
}

// Single-threaded probes of public layer functions on a node-sized store
// (a quarter of the records, as one of four cluster nodes holds): the same
// point read and purpose query called directly, through the server's
// dispatch, through the wire codecs alone, and over a loopback socket.
// Plus the at-rest AEAD on one sealed record blob.
Status EmitProbes(Emitter& out, const Dataset& ds, std::vector<Span>* spans) {
  gdpr::KvGdprOptions o;
  o.compliance.metadata_indexing = true;
  gdpr::KvGdprStore store(o);
  Status s = store.Open();
  const size_t quarter = ds.records / 4;
  if (s.ok()) s = Load(&store, ds, quarter);
  if (!s.ok()) return s;

  auto read_req = [&](size_t k) {
    const size_t i = (k * 7919) % quarter;
    gdpr::net::WireRequest req;
    req.op = gdpr::net::WireOp::kReadData;
    req.actor = Actor::Processor("proc-01", ds.PurposeOf(i));
    req.key = ds.Key(i);
    return req;
  };
  auto query_req = [&](size_t k) {
    gdpr::net::WireRequest req;
    req.op = gdpr::net::WireOp::kReadMetaPurpose;
    req.key = ds.Purpose(k % ds.purposes);
    req.actor = Actor::Processor("proc-01", req.key);
    return req;
  };
  const std::pair<const char*, std::function<gdpr::net::WireRequest(size_t)>>
      kinds[] = {{"read", read_req}, {"query", query_req}};

  gdpr::net::RpcServer server(&store);
  s = server.Start();
  if (!s.ok()) return s;
  gdpr::net::RemoteHandleOptions ro;
  ro.reconnect_fn = [&server] { return server.CreateLoopbackConnection(); };
  gdpr::net::RemoteHandle remote(server.CreateLoopbackConnection(), ro);

  bool ok = true;
  for (const auto& entry : kinds) {
    const std::string kind = entry.first;
    const auto& make = entry.second;
    const bool is_read = kind == "read";
    out.Emit(std::string("net.probe_direct_us.") + kind,
             Probe(std::string("probe.direct.") + kind, kProbeCalls,
                   [&](size_t k) {
                     const auto req = make(k);
                     return is_read
                                ? store.ReadDataByKey(req.actor, req.key).ok()
                                : store.ReadMetadataByPurpose(req.actor, req.key)
                                      .ok();
                   },
                   spans, &ok),
             "us");
    out.Emit(std::string("net.probe_dispatch_us.") + kind,
             Probe(std::string("probe.dispatch.") + kind, kProbeCalls,
                   [&](size_t k) {
                     return gdpr::net::DispatchRequest(&store, make(k)).status.ok();
                   },
                   spans, &ok),
             "us");
    // Codec cost alone: encode + decode of the request and of the response
    // the dispatch produced for it (built outside the timed call).
    std::vector<gdpr::net::WireRequest> reqs;
    std::vector<gdpr::net::WireResponse> resps;
    for (size_t k = 0; k < kProbeCalls; ++k) {
      reqs.push_back(make(k));
      resps.push_back(gdpr::net::DispatchRequest(&store, reqs.back()));
    }
    out.Emit(std::string("net.probe_codec_us.") + kind,
             Probe(std::string("probe.codec.") + kind, kProbeCalls,
                   [&](size_t k) {
                     gdpr::net::WireRequest req;
                     gdpr::net::WireResponse resp;
                     return gdpr::net::DecodeRequest(
                                gdpr::net::EncodeRequest(reqs[k]), &req)
                                .ok() &&
                            gdpr::net::DecodeResponse(
                                gdpr::net::EncodeResponse(resps[k]), &resp)
                                .ok();
                   },
                   spans, &ok),
             "us");
    out.Emit(std::string("net.probe_remote_us.") + kind,
             Probe(std::string("probe.remote.") + kind, kProbeCalls,
                   [&](size_t k) {
                     const auto req = make(k);
                     return is_read
                                ? remote.ReadDataByKey(req.actor, req.key).ok()
                                : remote.ReadMetadataByPurpose(req.actor, req.key)
                                      .ok();
                   },
                   spans, &ok),
             "us");
  }
  server.Stop();

  const gdpr::Aead aead("perfbench-at-rest-key");
  const std::string blob = ds.Make(0, 0).Serialize();
  const std::string sealed = aead.Seal(blob, 1);
  out.Emit("crypto.seal_us",
           Probe("probe.crypto.seal", kProbeCalls,
                 [&](size_t k) { return !aead.Seal(blob, k + 2).empty(); },
                 spans, &ok),
           "us");
  out.Emit("crypto.open_us",
           Probe("probe.crypto.open", kProbeCalls,
                 [&](size_t) { return aead.Open(sealed).ok(); }, spans, &ok),
           "us");
  return ok ? Status::OK() : Status::Internal("a probe call failed");
}

// ---- trace output --------------------------------------------------------

// Chrome trace-event JSON ("ph":"X" complete events; Perfetto opens it).
// One track per client plus one for the probes.
bool WriteTrace(const std::string& path, const std::vector<Client>& clients,
                const std::vector<Span>& probes, int64_t origin_ns) {
  FILE* f = fopen(path.c_str(), "w");
  if (!f) return false;
  static const char* const kOutcome[] = {"ok", "not_found", "failed"};
  fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  const size_t probe_tid = clients.size();
  for (size_t t = 0; t <= probe_tid; ++t) {
    fprintf(f,
            "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":%zu,"
            "\"args\":{\"name\":\"%s %zu\"}},\n",
            t, t == probe_tid ? "probes" : "client", t);
  }
  const size_t per_client = kMaxTraceSpans / std::max<size_t>(1, clients.size());
  uint64_t id = 0;
  for (size_t t = 0; t < clients.size(); ++t) {
    const auto& samples = clients[t].samples;
    for (size_t k = 0; k < samples.size() && k < per_client; ++k) {
      const Sample& s = samples[k];
      fprintf(f,
              "{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":%zu,"
              "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%" PRIu64
              ",\"status\":\"%s\",\"records\":%u}},\n",
              kOpName[size_t(s.op)], t, double(s.start_ns - origin_ns) / 1e3,
              double(s.end_ns - s.start_ns) / 1e3, id++,
              kOutcome[size_t(s.outcome)], s.records);
    }
  }
  for (size_t k = 0; k < probes.size(); ++k) {
    const Span& s = probes[k];
    fprintf(f,
            "{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":%zu,"
            "\"ts\":%.3f,\"dur\":%.3f}%s\n",
            s.name.c_str(), probe_tid,
            double(s.start_ns - origin_ns) / 1e3,
            double(s.end_ns - s.start_ns) / 1e3,
            k + 1 < probes.size() ? "," : "");
  }
  fprintf(f, "]}\n");
  return fclose(f) == 0;
}

bool WriteLines(const std::string& path, const std::vector<std::string>& lines,
                size_t from) {
  FILE* f = fopen(path.c_str(), "w");
  if (!f) return false;
  for (size_t k = from; k < lines.size(); ++k) fprintf(f, "%s\n", lines[k].c_str());
  return fclose(f) == 0;
}

// ---- main ----------------------------------------------------------------

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  size_t setups = 3;
  std::string data_dir = "gdprbench-data";
  std::string trace_dir;  // empty = untraced
};

bool ParseFlags(int argc, char** argv, Flags* f) {
  for (int k = 1; k < argc; ++k) {
    const std::string a = argv[k];
    auto value = [&](const char* name) -> const char* {
      const size_t n = strlen(name);
      return a.compare(0, n, name) == 0 ? a.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) f->workload = v;
    else if (const char* v = value("--seed=")) f->seed = strtoull(v, nullptr, 10);
    else if (const char* v = value("--seconds=")) f->seconds = atof(v);
    else if (const char* v = value("--setups=")) f->setups = strtoull(v, nullptr, 10);
    else if (const char* v = value("--data-dir=")) f->data_dir = v;
    else if (const char* v = value("--trace=")) f->trace_dir = v;
    else return false;
  }
  return !f->workload.empty() && f->seconds > 0 && f->setups > 0;
}

int Run(const Flags& flags) {
  const Workload* w = FindWorkload(flags.workload);
  if (!w) {
    fprintf(stderr, "unknown workload %s\n", flags.workload.c_str());
    return 2;
  }
  const Dataset ds;
  const bool traced = !flags.trace_dir.empty();
  const int64_t origin_ns = NowNs();
  Emitter out(w->name, flags.seed);
  auto fail = [](const std::string& what, const Status& s) {
    fprintf(stderr, "gdprbench: %s: %s\n", what.c_str(), s.ToString().c_str());
    return 3;
  };

  // The run sets the store up --setups times, each in a fresh directory,
  // and gives every store an equal slice of the timed window: spread over
  // the whole run, the window averages out host noise that comes and goes
  // within seconds, and each set-up is timed for the setup_s median.
  namespace fs = std::filesystem;
  std::vector<double> setup_s;
  std::vector<Client> clients(kClients);
  std::vector<WindowSnapshots> snapshots;
  double peak_rss_mb = 0, space_factor = 0, window_s = 0, live_ratio = 1;
  for (size_t k = 0; k < flags.setups; ++k) {
    const std::string dir = flags.data_dir + "/setup-" + std::to_string(k);
    fs::remove_all(dir);
    fs::create_directories(dir);
    const int64_t start = NowNs();
    std::unique_ptr<GdprStore> store = MakeStore(*w, dir);
    Status s = store->Open();
    if (s.ok()) s = Load(store.get(), ds, ds.records);
    if (!s.ok()) return fail("set-up", s);
    setup_s.push_back(double(NowNs() - start) / 1e9);
    if (k == 0) {
      space_factor =
          Ratio(double(store->TotalBytes()), double(ds.records * ds.data_bytes));
      s = CheckLoaded(store.get(), ds);
      if (!s.ok()) return fail("load self-test", s);
      for (size_t c = 0; c < kClients; ++c) {
        clients[c].stream = MakeStream(*w, ds, flags.seed, c);
        clients[c].samples.reserve(kStreamOps + kStreamOps / 4);
      }
    }
    OpRunner runner(store.get(), ds, *w);
    OnEveryClient(&clients, [&](Client* c) { runner.Warm(c, kWarmupSteps); });
    // Peak memory at a fixed op count — the load plus the first warm-up —
    // because the in-memory audit trail grows with every op, so a peak
    // taken after a timed window would rise whenever throughput does.
    if (k == 0) peak_rss_mb = PeakRssMb();
    // The stats are read while no client runs.
    if (traced) snapshots.emplace_back().first = store->StatsSnapshot();
    window_s += RunWindow(runner, flags.seconds / double(flags.setups), &clients);
    if (traced) snapshots.back().second = store->StatsSnapshot();
    // Churn re-creates whatever it erases, so the population must end where
    // it started; a drift means erasures outran their re-creates.
    live_ratio = std::min(
        live_ratio, Ratio(double(store->RecordCount()), double(ds.records)));
    s = store->Close();
    store.reset();
    fs::remove_all(dir);
    if (!s.ok()) return fail("close", s);
  }
  std::error_code ec;
  fs::remove(flags.data_dir, ec);  // only if now empty

  const WindowStats ws = Summarize(clients, window_s);
  for (const Client& c : clients) {
    if (!c.first_failure.empty()) {
      fprintf(stderr, "gdprbench: op failed: %s\n", c.first_failure.c_str());
    }
  }
  if (live_ratio < 0.95 || live_ratio > 1.05) {
    return fail("population check",
                Status::Internal("live records ratio " + std::to_string(live_ratio)));
  }
  EmitEndToEnd(out, ws, Median(setup_s), space_factor, peak_rss_mb);

  if (traced) {
    const size_t mark = out.mark();
    EmitStoreLayers(out, ws, snapshots, live_ratio, ds);
    std::vector<Span> probe_spans;
    Status probed = EmitProbes(out, ds, &probe_spans);
    if (!probed.ok()) return fail("probes", probed);
    fs::create_directories(flags.trace_dir);
    const std::string stem = std::string(w->name) + "-" + std::to_string(flags.seed);
    if (!WriteTrace(flags.trace_dir + "/trace-" + stem + ".json", clients,
                    probe_spans, origin_ns) ||
        !WriteLines(flags.trace_dir + "/layers-" + stem + ".jsonl", out.lines(),
                    mark)) {
      return fail("trace", Status::IOError("cannot write " + flags.trace_dir));
    }
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Flags flags;
  if (!perfbench::ParseFlags(argc, argv, &flags)) {
    fprintf(stderr,
            "usage: gdprbench --workload=W [--seed=N] [--seconds=N] "
            "[--setups=N] [--data-dir=DIR] [--trace=DIR]\n"
            "workloads:");
    for (const auto& w : perfbench::kWorkloads) fprintf(stderr, " %s", w.name);
    fprintf(stderr, "\n");
    return 2;
  }
  return perfbench::Run(flags);
}
