// The RPC seam end to end: DispatchRequest against a live store, the
// server/client pair over loopback sockets and a unix listener, the failure
// model (timeouts → Unavailable, reconnection, malformed frames answered
// without dropping the connection), the connection pool (no head-of-line
// blocking, pool-aware disconnects and reconnect counting), and the
// cluster-level consequence that matters most — a killed node makes Forget
// and every collection read report partial failure naming that node, never
// a silent success.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster_store.h"
#include "net/rpc_client.h"
#include "net/rpc_server.h"
#include "net/socket_io.h"
#include "net/wire.h"

namespace gdpr::net {
namespace {

GdprRecord MakeRecord(const std::string& key, const std::string& user) {
  GdprRecord rec;
  rec.key = key;
  rec.data = "data-for-" + key;
  rec.metadata.user = user;
  rec.metadata.purposes = {"ads"};
  rec.metadata.origin = "first-party";
  return rec;
}

// ---- DispatchRequest: the server-side op switch ---------------------------

TEST(Dispatch, CoversTheVocabularyAgainstALiveStore) {
  KvGdprStore store(KvGdprOptions{});
  ASSERT_TRUE(store.Open().ok());
  const Actor controller = Actor::Controller();

  const auto call = [&](WireRequest req) {
    req.actor = controller;
    return DispatchRequest(&store, req);
  };

  WireRequest req;
  req.op = WireOp::kPing;
  EXPECT_TRUE(call(req).status.ok());

  req = {};
  req.op = WireOp::kCreateRecord;
  req.record = MakeRecord("k1", "user-A");
  EXPECT_TRUE(call(req).status.ok());
  req.record = MakeRecord("k2", "user-B");
  EXPECT_TRUE(call(req).status.ok());

  req = {};
  req.op = WireOp::kReadData;
  req.key = "k1";
  {
    const WireResponse resp = call(req);
    ASSERT_TRUE(resp.status.ok());
    EXPECT_EQ(resp.op, WireOp::kReadData);
    EXPECT_EQ(resp.record.data, "data-for-k1");
  }
  req.key = "missing";
  EXPECT_TRUE(call(req).status.IsNotFound());

  req = {};
  req.op = WireOp::kReadMeta;
  req.key = "k1";
  EXPECT_EQ(call(req).metadata.user, "user-A");

  req = {};
  req.op = WireOp::kReadMetaUser;
  req.key = "user-A";
  EXPECT_EQ(call(req).records.size(), 1u);

  req = {};
  req.op = WireOp::kUpdateData;
  req.key = "k1";
  req.data = "rewritten";
  EXPECT_TRUE(call(req).status.ok());

  req = {};
  req.op = WireOp::kUpdateMeta;
  req.key = "k1";
  req.update.objections = std::vector<std::string>{"ads"};
  EXPECT_TRUE(call(req).status.ok());

  req = {};
  req.op = WireOp::kScanRecords;
  EXPECT_EQ(call(req).records.size(), 2u);

  req = {};
  req.op = WireOp::kRecordCount;
  EXPECT_EQ(call(req).count, 2u);
  req.op = WireOp::kTotalBytes;
  EXPECT_GT(call(req).count, 0u);

  req = {};
  req.op = WireOp::kDeleteUser;
  req.key = "user-B";
  EXPECT_EQ(call(req).count, 1u);

  req = {};
  req.op = WireOp::kVerifyDeletion;
  req.key = "k2";
  req.actor = Actor::Regulator();
  EXPECT_TRUE(DispatchRequest(&store, req).flag);

  req = {};
  req.op = WireOp::kExportSlot;
  req.slot = SlotForKey("k1", 8);
  req.num_slots = 8;
  EXPECT_EQ(call(req).contents.records.size(), 1u);
  req.slot = SlotForKey("k2", 8);
  EXPECT_EQ(call(req).contents.tombstones, std::vector<std::string>{"k2"});

  req = {};
  req.op = WireOp::kImportSlot;
  req.contents.records = {MakeRecord("k3", "user-C")};
  EXPECT_TRUE(call(req).status.ok());
  req = {};
  req.op = WireOp::kEvictRecords;
  req.keys = {"k3", "missing"};
  EXPECT_TRUE(call(req).status.ok());
  req.op = WireOp::kRecordCount;
  EXPECT_EQ(call(req).count, 1u);

  req = {};
  req.op = WireOp::kHealth;
  {
    const WireResponse resp = call(req);
    EXPECT_EQ(resp.health.state, HealthState::kHealthy);
    EXPECT_TRUE(resp.health.cause.ok());
  }

  req = {};
  req.op = WireOp::kGetFeatures;
  EXPECT_FALSE(call(req).features.rows.empty());

  req = {};
  req.op = WireOp::kGetLogs;
  req.actor = Actor::Regulator();
  req.from_micros = 0;
  req.to_micros = INT64_MAX;
  EXPECT_FALSE(DispatchRequest(&store, req).entries.empty());

  req = {};
  req.op = WireOp::kStatsSnapshot;
  EXPECT_GT(call(req).snapshot.counters.size(), 0u);

  req = {};
  req.op = WireOp::kCompactNow;
  EXPECT_TRUE(call(req).status.ok());
  req.op = WireOp::kCompactionStats;
  EXPECT_TRUE(call(req).status.ok());

  req = {};
  req.op = WireOp::kVerifyAuditChain;
  {
    const WireResponse resp = call(req);
    EXPECT_TRUE(resp.flag);
    EXPECT_FALSE(resp.head_hash.empty());
  }

  req = {};
  req.op = WireOp::kReset;
  EXPECT_TRUE(call(req).status.ok());
  req.op = WireOp::kRecordCount;
  EXPECT_EQ(call(req).count, 0u);

  ASSERT_TRUE(store.Close().ok());
}

// Statuses the cluster's merge logic branches on must arrive intact.
TEST(Dispatch, PermissionDeniedSurvivesTheSwitch) {
  KvGdprStore store(KvGdprOptions{});
  ASSERT_TRUE(store.Open().ok());
  WireRequest req;
  req.op = WireOp::kCreateRecord;
  req.actor = Actor::Controller();
  req.record = MakeRecord("k", "user-A");
  ASSERT_TRUE(DispatchRequest(&store, req).status.ok());

  req = {};
  req.op = WireOp::kReadMetaUser;
  req.actor = Actor::Customer("user-B");
  req.key = "user-A";  // another subject's data
  EXPECT_TRUE(DispatchRequest(&store, req).status.IsPermissionDenied());
  ASSERT_TRUE(store.Close().ok());
}

// ---- RemoteHandle over a live server --------------------------------------

class RpcLoopback : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = std::make_unique<KvGdprStore>(KvGdprOptions{});
    server_ = std::make_unique<RpcServer>(store_.get());
    ASSERT_TRUE(server_->Start().ok());
    RemoteHandleOptions ro;
    ro.timeout_ms = 5000;
    RpcServer* srv = server_.get();
    ro.reconnect_fn = [srv] { return srv->CreateLoopbackConnection(); };
    ro.metrics = &registry_;
    ro.node_label = "0";
    handle_ = std::make_unique<RemoteHandle>(
        server_->CreateLoopbackConnection(), std::move(ro));
  }

  std::unique_ptr<KvGdprStore> store_;
  std::unique_ptr<RpcServer> server_;
  obs::MetricsRegistry registry_;
  std::unique_ptr<RemoteHandle> handle_;
};

TEST_F(RpcLoopback, FullOpFlowOverTheWire) {
  ASSERT_TRUE(handle_->Open().ok());
  const Actor controller = Actor::Controller();
  for (int i = 0; i < 20; ++i) {
    const std::string user = (i % 2) ? "user-A" : "user-B";
    ASSERT_TRUE(handle_
                    ->CreateRecord(controller,
                                   MakeRecord("k" + std::to_string(i), user))
                    .ok());
  }
  EXPECT_EQ(handle_->RecordCount(), 20u);
  EXPECT_EQ(handle_->ReadDataByKey(controller, "k3").value().data,
            "data-for-k3");
  EXPECT_EQ(handle_->ReadMetadataByUser(controller, "user-A").value().size(),
            10u);

  // Scan replays the callback client-side, honoring early stop.
  size_t seen = 0;
  ASSERT_TRUE(handle_
                  ->ScanRecords(controller,
                                [&](const GdprRecord&) {
                                  ++seen;
                                  return seen < 5;
                                })
                  .ok());
  EXPECT_EQ(seen, 5u);

  // Forget over the wire: the ack frame is the durable-tombstone ack.
  const auto erased = handle_->DeleteRecordsByUser(controller, "user-A");
  ASSERT_TRUE(erased.ok());
  EXPECT_EQ(erased.value(), 10u);
  EXPECT_TRUE(handle_->VerifyDeletion(Actor::Regulator(), "k1").value());
  EXPECT_EQ(handle_->RecordCount(), 10u);

  // Introspection and evidence.
  EXPECT_EQ(handle_->GetHealth().state, HealthState::kHealthy);
  EXPECT_GT(handle_->TotalBytes(), 0u);
  const auto verdict = handle_->VerifyAuditChain();
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(verdict.value().chain_ok);
  EXPECT_EQ(verdict.value().head_hash, store_->audit_log()->head_hash());
  EXPECT_TRUE(handle_->CompactNow(controller).ok());

  // RPC metrics observed every round trip.
  const auto snap = registry_.Snapshot();
  EXPECT_GT(snap.CounterValue("cluster_rpc_bytes_total"), 0u);
  ASSERT_TRUE(handle_->Close().ok());
}

// The node-only surface answers the same called directly on the store and
// through a RemoteHandle: slot exports partition the records and the
// tombstones exactly as the router's SlotMap does, and the audit verdicts
// carry the same head hash.
TEST_F(RpcLoopback, NodeSurfaceMatchesTheStoreCalledDirectly) {
  const Actor controller = Actor::Controller();
  constexpr uint32_t kSlots = 8;
  const cluster::SlotMap slot_map(kSlots, 1);
  std::vector<std::set<std::string>> want_records(kSlots);
  std::vector<std::set<std::string>> want_tombstones(kSlots);
  for (int i = 0; i < 40; ++i) {
    const std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(store_->CreateRecord(controller, MakeRecord(key, "u")).ok());
    if (i % 3 == 0) {
      ASSERT_TRUE(store_->DeleteRecordByKey(controller, key).ok());
      want_tombstones[slot_map.SlotOf(key)].insert(key);
    } else {
      want_records[slot_map.SlotOf(key)].insert(key);
    }
  }

  NodeHandle* const direct = store_.get();
  NodeHandle* const remote = handle_.get();
  for (NodeHandle* node : {direct, remote}) {
    SCOPED_TRACE(node == direct ? "direct" : "remote");
    for (uint32_t slot = 0; slot < kSlots; ++slot) {
      auto exported = node->ExportSlot(slot, kSlots);
      ASSERT_TRUE(exported.ok()) << exported.status().ToString();
      std::set<std::string> got;
      for (const GdprRecord& rec : exported.value().records) {
        got.insert(rec.key);
      }
      EXPECT_EQ(got, want_records[slot]) << "slot " << slot;
      const std::vector<std::string>& tombstones = exported.value().tombstones;
      EXPECT_EQ(std::set<std::string>(tombstones.begin(), tombstones.end()),
                want_tombstones[slot])
          << "slot " << slot;
    }
  }

  // An out-of-range slot spec is refused with the same code on both
  // transports, and the refusal is an answer, not a broken connection.
  for (const auto& [slot, num_slots] :
       {std::pair<uint32_t, uint32_t>{3, 2}, {0, 0}}) {
    SCOPED_TRACE("slot " + std::to_string(slot) + " of " +
                 std::to_string(num_slots));
    for (NodeHandle* node : {direct, remote}) {
      EXPECT_EQ(node->ExportSlot(slot, num_slots).status().code(),
                StatusCode::kInvalidArgument);
    }
  }

  const auto direct_verdict = direct->VerifyAuditChain();
  const auto remote_verdict = remote->VerifyAuditChain();
  ASSERT_TRUE(direct_verdict.ok() && remote_verdict.ok());
  EXPECT_TRUE(direct_verdict.value().chain_ok);
  EXPECT_EQ(remote_verdict.value().chain_ok, direct_verdict.value().chain_ok);
  EXPECT_FALSE(direct_verdict.value().head_hash.empty());
  EXPECT_EQ(remote_verdict.value().head_hash,
            direct_verdict.value().head_hash);
  EXPECT_EQ(registry_.Snapshot().CounterValue("cluster_rpc_reconnects_total"),
            0u);
}

TEST_F(RpcLoopback, ReconnectsAfterInjectedDisconnectAndCountsIt) {
  ASSERT_TRUE(handle_->Open().ok());
  const Actor controller = Actor::Controller();
  ASSERT_TRUE(handle_->CreateRecord(controller, MakeRecord("k", "u")).ok());
  handle_->InjectDisconnect();
  // Next call re-establishes through reconnect_fn and succeeds.
  const auto read = handle_->ReadDataByKey(controller, "k");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().data, "data-for-k");
  EXPECT_GE(registry_.Snapshot().CounterValue("cluster_rpc_reconnects_total"),
            1u);
}

TEST_F(RpcLoopback, HealthReadIsOneRoundTrip) {
  ASSERT_TRUE(handle_->Open().ok());
  const auto rpcs = [this] {
    const obs::RegistrySnapshot snap = registry_.Snapshot();
    const obs::HistogramSnapshot* h =
        snap.FindHistogram("cluster_rpc_us{node=\"0\"}");
    return h ? h->count : 0;
  };
  const uint64_t before = rpcs();
  const HealthReport health = handle_->GetHealth();
  EXPECT_EQ(rpcs(), before + 1);
  EXPECT_EQ(health.state, HealthState::kHealthy);
  EXPECT_TRUE(health.cause.ok());
}

TEST_F(RpcLoopback, StoppedServerSurfacesUnavailableNotAHang) {
  ASSERT_TRUE(handle_->Open().ok());
  server_->Stop();
  const Status s =
      handle_->CreateRecord(Actor::Controller(), MakeRecord("k", "u"));
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  // Statusless introspection degrades instead of erroring...
  EXPECT_EQ(handle_->RecordCount(), 0u);
  // ...and health reports the node unreachable.
  EXPECT_EQ(handle_->GetHealth().state, HealthState::kDegradedReadOnly);
  EXPECT_TRUE(handle_->GetHealth().cause.IsUnavailable());
}

TEST_F(RpcLoopback, MalformedFrameGetsErrorResponseConnectionSurvives) {
  // Speak the framing by hand: a well-framed but garbage payload must get
  // an error response — not kill the connection, not kill the server.
  const int fd = server_->CreateLoopbackConnection();
  ASSERT_GE(fd, 0);
  FrameBuffer buf;
  std::string payload;

  ASSERT_TRUE(WriteFrame(fd, "\xde\xad\xbe\xef", 5000).ok());
  ASSERT_TRUE(ReadFrame(fd, &buf, &payload, 5000).ok());
  WireResponse resp;
  ASSERT_TRUE(DecodeResponse(payload, &resp).ok());
  EXPECT_FALSE(resp.status.ok());

  // Same connection still serves valid requests.
  WireRequest ping;
  ping.op = WireOp::kPing;
  ping.actor = Actor::Controller();
  ASSERT_TRUE(WriteFrame(fd, EncodeRequest(ping), 5000).ok());
  ASSERT_TRUE(ReadFrame(fd, &buf, &payload, 5000).ok());
  ASSERT_TRUE(DecodeResponse(payload, &resp).ok());
  EXPECT_TRUE(resp.status.ok());
  EXPECT_EQ(resp.op, WireOp::kPing);
  CloseFd(fd);
}

TEST(RpcClient, TimeoutSurfacesUnavailable) {
  // A peer that accepts bytes but never answers: the request must come
  // back Unavailable within the budget, not hang the caller.
  auto [peer, client] = StreamPair();
  ASSERT_GE(client, 0);
  RemoteHandleOptions ro;
  ro.timeout_ms = 100;
  RemoteHandle handle(client, std::move(ro));
  const Status s = handle.Open();
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  CloseFd(peer);
}

TEST(RpcClient, DeadHandleWithNoReconnectPathStaysCleanlyDead) {
  RemoteHandleOptions ro;
  ro.timeout_ms = 100;
  RemoteHandle handle(-1, std::move(ro));
  EXPECT_TRUE(handle.Open().IsUnavailable());
  EXPECT_TRUE(
      handle.ReadDataByKey(Actor::Controller(), "k").status().IsUnavailable());
  EXPECT_EQ(handle.RecordCount(), 0u);
  EXPECT_EQ(handle.GetHealth().state, HealthState::kDegradedReadOnly);
}

// ---- the connection pool ---------------------------------------------------

// A node whose purpose queries park inside the store until the test opens
// the latch. A watchdog opens it after 2 s regardless, so a transport that
// queues a second call behind a parked one fails its test instead of
// hanging it.
class LatchedStore : public KvGdprStore {
 public:
  LatchedStore() : KvGdprStore(KvGdprOptions{}) {
    watchdog_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::seconds(2), [&] { return open_; });
      open_ = true;
      cv_.notify_all();
    });
  }
  ~LatchedStore() override {
    OpenLatch();
    watchdog_.join();
  }

  void OpenLatch() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  bool is_open() {
    std::lock_guard<std::mutex> lock(mu_);
    return open_;
  }
  // Blocks until n purpose queries are parked (or the latch opened).
  void WaitParked(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return parked_ >= n || open_; });
  }

 protected:
  Status Collect(Attr attr, const std::string& value, bool mask,
                 std::vector<GdprRecord>* out) override {
    if (attr == Attr::kPurpose) {
      std::unique_lock<std::mutex> lock(mu_);
      ++parked_;
      cv_.notify_all();
      cv_.wait(lock, [&] { return open_; });
    }
    return KvGdprStore::Collect(attr, value, mask, out);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  int parked_ = 0;
  std::thread watchdog_;
};

class RpcPool : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store_.Open().ok());
    ASSERT_TRUE(server_.Start().ok());
    RemoteHandleOptions ro;
    ro.timeout_ms = 5000;
    ro.reconnect_fn = [this] { return server_.CreateLoopbackConnection(); };
    ro.metrics = &registry_;
    ro.node_label = "0";
    handle_ = std::make_unique<RemoteHandle>(
        server_.CreateLoopbackConnection(), std::move(ro));
    for (int i = 0; i < 64; ++i) {
      GdprRecord rec = MakeRecord("k" + std::to_string(i), "u");
      rec.metadata.purposes = {"p" + std::to_string(i % 4)};
      ASSERT_TRUE(store_.CreateRecord(controller_, rec).ok());
    }
  }
  void TearDown() override { store_.OpenLatch(); }

  // Runs n purpose queries on their own threads; each parks in the store
  // until the latch opens, holding one pooled connection.
  std::vector<std::thread> ParkQueries(int n) {
    std::vector<std::thread> threads;
    for (int i = 0; i < n; ++i) {
      threads.emplace_back([this] {
        const auto r = handle_->ReadMetadataByPurpose(controller_, "p0");
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_EQ(r.value().size(), 16u);
      });
    }
    store_.WaitParked(n);
    return threads;
  }
  int64_t Connections() {
    return registry_.Snapshot().GaugeValue(
        "cluster_rpc_connections{node=\"0\"}");
  }
  uint64_t Reconnects() {
    return registry_.Snapshot().CounterValue("cluster_rpc_reconnects_total");
  }

  const Actor controller_ = Actor::Controller();
  LatchedStore store_;
  RpcServer server_{&store_};
  obs::MetricsRegistry registry_;
  std::unique_ptr<RemoteHandle> handle_;
};

TEST_F(RpcPool, PointReadDoesNotQueueBehindAParkedPurposeQuery) {
  std::vector<std::thread> parked = ParkQueries(1);
  const auto read = handle_->ReadDataByKey(controller_, "k5");
  // Sampled before the latch opens: on a transport that serializes calls
  // the read could only have returned after the watchdog opened it.
  const bool answered_while_parked = !store_.is_open();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().data, "data-for-k5");
  EXPECT_TRUE(answered_while_parked)
      << "the point read waited for the purpose query";
  store_.OpenLatch();
  for (std::thread& t : parked) t.join();
}

TEST_F(RpcPool, MixedCallsFromEightThreadsAllAnswerCorrectly) {
  store_.OpenLatch();  // purpose queries run unparked
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([this, t] {
      for (int i = 0; i < 50; ++i) {
        const int k = (t * 50 + i) % 64;
        if (i % 4 == 0) {
          const std::string purpose = "p" + std::to_string(k % 4);
          const auto r = handle_->ReadMetadataByPurpose(controller_, purpose);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          ASSERT_EQ(r.value().size(), 16u);
          for (const GdprRecord& rec : r.value()) {
            ASSERT_EQ(rec.metadata.purposes,
                      std::vector<std::string>{purpose});
          }
        } else {
          const std::string key = "k" + std::to_string(k);
          const auto r = handle_->ReadDataByKey(controller_, key);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          ASSERT_EQ(r.value().data, "data-for-" + key);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_GE(Connections(), 1);
  EXPECT_LE(Connections(), 8);
  EXPECT_EQ(Reconnects(), 0u);
}

TEST_F(RpcPool, DisconnectDuringAnInFlightCallClosesItOnReturn) {
  std::vector<std::thread> parked = ParkQueries(1);
  EXPECT_EQ(Connections(), 1);
  handle_->InjectDisconnect();
  store_.OpenLatch();
  for (std::thread& t : parked) t.join();  // the call itself still succeeds
  EXPECT_EQ(Connections(), 0);  // ...but its connection was not pooled
  EXPECT_TRUE(handle_->ReadDataByKey(controller_, "k1").ok());
  EXPECT_EQ(Connections(), 1);
  EXPECT_EQ(Reconnects(), 1u);
}

TEST_F(RpcPool, ReconnectsCountReplacementsNotPoolGrowth) {
  std::vector<std::thread> parked = ParkQueries(4);
  EXPECT_EQ(Connections(), 4);  // three dialed on demand
  store_.OpenLatch();
  for (std::thread& t : parked) t.join();
  EXPECT_EQ(Connections(), 4);  // all four pooled
  EXPECT_EQ(Reconnects(), 0u);  // growth is not reconnection
  handle_->InjectDisconnect();
  EXPECT_EQ(Connections(), 0);
  EXPECT_TRUE(handle_->ReadDataByKey(controller_, "k1").ok());
  EXPECT_EQ(Reconnects(), 1u);
}

TEST_F(RpcPool, StopWithIdlePooledConnectionsIsPromptAndUnavailable) {
  std::vector<std::thread> parked = ParkQueries(4);
  store_.OpenLatch();
  for (std::thread& t : parked) t.join();
  ASSERT_EQ(Connections(), 4);
  const auto start = std::chrono::steady_clock::now();
  server_.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  // The first call finds a dead pooled connection; that failure drops the
  // whole idle pool, and the call after it finds no server to dial.
  EXPECT_TRUE(
      handle_->ReadDataByKey(controller_, "k1").status().IsUnavailable());
  EXPECT_EQ(Connections(), 0);
  EXPECT_TRUE(
      handle_->ReadDataByKey(controller_, "k1").status().IsUnavailable());
}

// ---- unix-socket listener: genuinely cross-process-capable ----------------

TEST(RpcUnixSocket, DialServeAndReconnectOverAListener) {
  const std::string path =
      "/tmp/gdpr_rpc_test_" + std::to_string(::getpid()) + ".sock";
  const std::string addr = "unix:" + path;
  KvGdprStore store(KvGdprOptions{});
  RpcServer server(&store);
  ASSERT_TRUE(server.Start(addr).ok());

  RemoteHandleOptions ro;
  ro.timeout_ms = 5000;
  ro.dial_addr = addr;
  RemoteHandle handle(-1, std::move(ro));  // lazy dial on first use
  ASSERT_TRUE(handle.Open().ok());
  const Actor controller = Actor::Controller();
  ASSERT_TRUE(handle.CreateRecord(controller, MakeRecord("k", "u")).ok());
  EXPECT_EQ(handle.ReadDataByKey(controller, "k").value().data, "data-for-k");

  handle.InjectDisconnect();  // re-dials the listener on the next call
  EXPECT_EQ(handle.RecordCount(), 1u);
  ASSERT_TRUE(handle.Close().ok());
  server.Stop();
  ::unlink(path.c_str());
}

// ---- the cluster-level failure contract -----------------------------------

TEST(ClusterKilledNode, ForgetReportsPartialFailureNamingTheNode) {
  using cluster::ClusterGdprStore;
  using cluster::ClusterOptions;
  using cluster::ClusterTransport;
  ClusterOptions co;
  co.nodes = 3;
  co.transport = ClusterTransport::kLoopbackSocket;
  co.rpc_timeout_ms = 2000;
  co.compliance.metadata_indexing = true;
  ClusterGdprStore cluster(co);
  ASSERT_TRUE(cluster.Open().ok());
  const Actor controller = Actor::Controller();

  // One user's records spread across all three nodes.
  size_t made = 0;
  for (int i = 0; made < 30; ++i) {
    const std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(
        cluster.CreateRecord(controller, MakeRecord(key, "user-A")).ok());
    ++made;
  }
  for (size_t n = 0; n < co.nodes; ++n) {
    ASSERT_GT(cluster.node(n)->RecordCount(), 0u)
        << "spread assumption broken";
  }
  const size_t on_node1 = cluster.node(1)->RecordCount();

  // Kill node 1's server: its RPCs now fail, its store keeps its records.
  cluster.node_server(1)->Stop();

  // A collection read without node 1 never reads as complete: the other
  // nodes' records arrive, the status names node 1, and the router's own
  // chain holds the evidence.
  const auto by_user = cluster.ReadMetadataByUser(controller, "user-A");
  ASSERT_FALSE(by_user.ok());
  EXPECT_TRUE(by_user.status().IsUnavailable()) << by_user.status().ToString();
  EXPECT_NE(by_user.status().message().find("node 1"), std::string::npos)
      << by_user.status().ToString();
  size_t scanned = 0;
  const Status scan = cluster.ScanRecords(controller, [&](const GdprRecord&) {
    ++scanned;
    return true;
  });
  EXPECT_TRUE(scan.IsUnavailable()) << scan.ToString();
  EXPECT_NE(scan.message().find("node 1"), std::string::npos)
      << scan.ToString();
  EXPECT_EQ(scanned, made - on_node1);
  size_t incomplete_reads = 0;
  for (const AuditEntry& e :
       cluster.audit_log()->Query(0, std::numeric_limits<int64_t>::max())) {
    if (!e.allowed && e.op == ops::kReadMetaUser &&
        e.key.find("node 1") != std::string::npos) {
      ++incomplete_reads;
    }
  }
  EXPECT_EQ(incomplete_reads, 1u);

  const auto erased = cluster.DeleteRecordsByUser(controller, "user-A");
  ASSERT_FALSE(erased.ok());
  EXPECT_TRUE(erased.status().IsUnavailable()) << erased.status().ToString();
  // The partial-failure report names the node still holding records.
  EXPECT_NE(erased.status().message().find("erasure incomplete"),
            std::string::npos)
      << erased.status().ToString();
  EXPECT_NE(erased.status().message().find("node 1"), std::string::npos)
      << erased.status().ToString();
  EXPECT_EQ(erased.status().message().find("node 0"), std::string::npos);
  EXPECT_EQ(erased.status().message().find("node 2"), std::string::npos);

  // The healthy nodes really erased; the dead node really did not.
  EXPECT_EQ(cluster.node(0)->RecordCount(), 0u);
  EXPECT_EQ(cluster.node(2)->RecordCount(), 0u);
  EXPECT_EQ(cluster.node(1)->RecordCount(), on_node1);

  // The other broadcasts (TTL sweep, log pull, compaction) never read as
  // complete without node 1 either, and name it.
  const auto reclaimed = cluster.DeleteExpiredRecords(controller);
  const auto logs = cluster.GetSystemLogs(
      Actor::Regulator(), 0, std::numeric_limits<int64_t>::max());
  const auto compacted = cluster.CompactNow(controller);
  for (const Status& s :
       {reclaimed.status(), logs.status(), compacted.status()}) {
    EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
    EXPECT_NE(s.message().find("node 1"), std::string::npos) << s.ToString();
  }
  // The router's COMPACT-ALL evidence names the failed node too.
  size_t failed_compactions = 0;
  for (const AuditEntry& e :
       cluster.audit_log()->Query(0, std::numeric_limits<int64_t>::max())) {
    if (!e.allowed && e.op == ops::kCompactAll &&
        e.key.find("node 1") != std::string::npos) {
      ++failed_compactions;
    }
  }
  EXPECT_EQ(failed_compactions, 1u);

  // Cluster health reflects the unreachable node, and its chain cannot be
  // remotely verified while it is down.
  EXPECT_EQ(cluster.GetHealth().state, HealthState::kDegradedReadOnly);
  EXPECT_EQ(cluster.NodeHealth(1), HealthState::kDegradedReadOnly);
  std::vector<bool> per_node;
  EXPECT_FALSE(cluster.VerifyAuditChains(&per_node));
  ASSERT_EQ(per_node.size(), co.nodes + 1);
  EXPECT_TRUE(per_node[0]);
  EXPECT_FALSE(per_node[1]);
  EXPECT_TRUE(per_node[2]);
}

}  // namespace
}  // namespace gdpr::net
