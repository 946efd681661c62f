// One behaviour spec for the GDPR policy layer, run over every engine
// (memkv, reldb) with metadata indexing on and off. Indexing and the engine
// change cost, never results: each case asserts the same answers in all
// four configurations.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "common/string_util.h"
#include "gdpr/kv_backend.h"
#include "gdpr/rel_backend.h"
#include "storage/fault_env.h"

namespace gdpr {
namespace {

enum class Engine { kMemkv, kReldb };

struct SpecParam {
  Engine engine;
  bool indexed;
};

std::string ParamName(const testing::TestParamInfo<SpecParam>& info) {
  return std::string(info.param.engine == Engine::kMemkv ? "memkv" : "reldb") +
         (info.param.indexed ? "_indexed" : "_scan");
}

// Engine-neutral knobs a case may set.
struct StoreSetup {
  Clock* clock = nullptr;
  // Non-null: the engine's log (AOF / WAL) lives here as "spec.log",
  // synced on every write.
  Env* env = nullptr;
  bool encrypt = false;
};

GdprRecord MakeRec(const std::string& key, const std::string& user,
                   std::vector<std::string> purposes = {"billing"},
                   std::vector<std::string> shared = {}) {
  GdprRecord rec;
  rec.key = key;
  rec.data = "data-" + key;
  rec.metadata.user = user;
  rec.metadata.purposes = std::move(purposes);
  rec.metadata.shared_with = std::move(shared);
  rec.metadata.origin = "first-party";
  return rec;
}

// Flips one bit of the engine log "spec.log" at the offset where(log)
// names.
void FlipLogBit(MemEnv* env,
                const std::function<size_t(const std::string&)>& where) {
  std::string log = env->ReadFileToString("spec.log").value();
  const size_t at = where(log);
  ASSERT_LT(at, log.size());
  log[at] = char(uint8_t(log[at]) ^ 0x01);
  auto f = env->NewWritableFile("spec.log", /*truncate=*/true);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(f.value()->Append(log).ok());
  ASSERT_TRUE(f.value()->Close().ok());
}

std::set<std::string> KeysOf(const std::vector<GdprRecord>& recs) {
  std::set<std::string> keys;
  for (const auto& r : recs) keys.insert(r.key);
  return keys;
}

class GdprSpec : public testing::TestWithParam<SpecParam> {
 protected:
  bool memkv() const { return GetParam().engine == Engine::kMemkv; }

  std::unique_ptr<GdprStore> Make(const StoreSetup& s = StoreSetup()) const {
    ComplianceFlags flags;
    flags.metadata_indexing = GetParam().indexed;
    flags.encrypt_at_rest = s.encrypt;
    if (memkv()) {
      KvGdprOptions o;
      o.clock = s.clock;
      o.compliance = flags;
      if (s.env) {
        o.kv.env = s.env;
        o.kv.aof_enabled = true;
        o.kv.aof_path = "spec.log";
        o.kv.sync_policy = SyncPolicy::kAlways;
      }
      return std::make_unique<KvGdprStore>(o);
    }
    RelGdprOptions o;
    o.clock = s.clock;
    o.compliance = flags;
    if (s.env) {
      o.rel.env = s.env;
      o.rel.wal_enabled = true;
      o.rel.wal_path = "spec.log";
      o.rel.sync_policy = SyncPolicy::kAlways;
    }
    return std::make_unique<RelGdprStore>(o);
  }
};

TEST_P(GdprSpec, AccessControlMatrix) {
  auto store = Make();
  ASSERT_TRUE(store->Open().ok());
  const Actor controller = Actor::Controller();
  const Actor neo = Actor::Customer("neo");
  const Actor smith = Actor::Customer("smith");
  const Actor ads = Actor::Processor("p", "ads");
  const Actor regulator = Actor::Regulator();
  ASSERT_TRUE(store
                  ->CreateRecord(controller,
                                 MakeRec("k1", "neo", {"ads", "2fa"}, {"p1"}))
                  .ok());
  auto denied = [](const Status& s) { return s.IsPermissionDenied(); };

  // Customers act on what they own, and only that.
  EXPECT_TRUE(store->ReadDataByKey(neo, "k1").ok());
  EXPECT_TRUE(denied(store->ReadDataByKey(smith, "k1").status()));
  EXPECT_TRUE(denied(store->CreateRecord(neo, MakeRec("k2", "smith"))));
  EXPECT_TRUE(denied(store->ReadMetadataByUser(neo, "smith").status()));
  EXPECT_TRUE(denied(store->ReadRecordsByUser(neo, "smith").status()));
  EXPECT_TRUE(denied(store->DeleteRecordsByUser(neo, "smith").status()));
  EXPECT_TRUE(store->ReadRecordsByUser(neo, "neo").ok());
  // Cross-subject queries, log pulls, scans and maintenance are not theirs.
  EXPECT_TRUE(denied(store->ReadMetadataByPurpose(neo, "ads").status()));
  EXPECT_TRUE(denied(store->ReadMetadataBySharing(neo, "p1").status()));
  EXPECT_TRUE(denied(store->GetSystemLogs(neo, 0, 1).status()));
  EXPECT_TRUE(denied(store->VerifyDeletion(neo, "k1").status()));
  EXPECT_TRUE(
      denied(store->ScanRecords(neo, [](const GdprRecord&) { return true; })));
  EXPECT_TRUE(denied(store->CompactNow(neo).status()));

  // Nor write into another subject's record: neither a create over smith's
  // key nor an update that hands neo's record to smith goes through. Each
  // refusal is audited and leaves the record as it was.
  ASSERT_TRUE(store->CreateRecord(controller, MakeRec("k4", "smith")).ok());
  GdprRecord overwrite = MakeRec("k4", "neo");
  overwrite.data = "neo's data";
  EXPECT_TRUE(denied(store->CreateRecord(neo, overwrite)));
  MetadataUpdate handoff;
  handoff.user = "smith";
  EXPECT_TRUE(denied(store->UpdateMetadataByKey(neo, "k1", handoff)));
  auto k4 = store->ReadDataByKey(smith, "k4");
  ASSERT_TRUE(k4.ok()) << k4.status().ToString();
  EXPECT_EQ(k4.value().data, "data-k4");
  EXPECT_EQ(k4.value().metadata.user, "smith");
  auto k1 = store->ReadMetadataByKey(controller, "k1");
  ASSERT_TRUE(k1.ok()) << k1.status().ToString();
  EXPECT_EQ(k1.value().user, "neo");
  auto logs = store->GetSystemLogs(controller, 0, store->clock()->NowMicros());
  ASSERT_TRUE(logs.ok());
  std::set<std::string> refused;
  for (const AuditEntry& e : logs.value()) {
    if (e.actor_id == "neo" && !e.allowed) refused.insert(e.op + " " + e.key);
  }
  EXPECT_TRUE(refused.count(std::string(ops::kCreate) + " k4"));
  EXPECT_TRUE(refused.count(std::string(ops::kUpdateMeta) + " k1"));

  // Processors read under a granted purpose, and only read.
  EXPECT_TRUE(store->ReadDataByKey(ads, "k1").ok());
  EXPECT_TRUE(store->ReadMetadataByPurpose(ads, "ads").ok());
  EXPECT_TRUE(
      denied(store->ReadDataByKey(Actor::Processor("p", "fraud"), "k1")
                 .status()));
  EXPECT_TRUE(denied(store->ReadMetadataByPurpose(ads, "2fa").status()));
  EXPECT_TRUE(denied(store->DeleteRecordByKey(ads, "k1")));
  EXPECT_TRUE(
      denied(store->ScanRecords(ads, [](const GdprRecord&) { return true; })));
  EXPECT_TRUE(denied(store->GetSystemLogs(ads, 0, 1).status()));

  // Regulators see metadata, logs and evidence — never personal data.
  EXPECT_TRUE(denied(store->ReadDataByKey(regulator, "k1").status()));
  EXPECT_TRUE(denied(store->ReadRecordsByUser(regulator, "neo").status()));
  EXPECT_TRUE(denied(store->CompactNow(regulator).status()));
  EXPECT_TRUE(
      store->GetSystemLogs(regulator, 0, store->clock()->NowMicros()).ok());
  EXPECT_TRUE(store->ReadMetadataBySharing(regulator, "p1").ok());
  EXPECT_TRUE(store->VerifyDeletion(regulator, "k1").ok());

  // An objection withdraws exactly the purpose objected to.
  MetadataUpdate objection;
  objection.objections = std::vector<std::string>{"ads"};
  ASSERT_TRUE(store->UpdateMetadataByKey(neo, "k1", objection).ok());
  EXPECT_TRUE(denied(store->ReadDataByKey(ads, "k1").status()));
  EXPECT_TRUE(store->ReadDataByKey(Actor::Processor("p", "2fa"), "k1").ok());
  // A purpose query serves the same rule record by record (G 21): the
  // "ads" processor no longer sees k1, the "2fa" one still does, and the
  // controller sees every record that holds the purpose.
  ASSERT_TRUE(store
                  ->CreateRecord(controller,
                                 MakeRec("k3", "smith", {"ads", "2fa"}))
                  .ok());
  const auto purpose_keys = [&](const Actor& actor, const std::string& p) {
    auto r = store->ReadMetadataByPurpose(actor, p);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? KeysOf(r.value()) : std::set<std::string>();
  };
  EXPECT_EQ(purpose_keys(ads, "ads"), std::set<std::string>{"k3"});
  EXPECT_EQ(purpose_keys(Actor::Processor("p", "2fa"), "2fa"),
            (std::set<std::string>{"k1", "k3"}));
  EXPECT_EQ(purpose_keys(controller, "ads"),
            (std::set<std::string>{"k1", "k3"}));
}

// A collection read appends to the caller's vector: what it held stays in
// front, on every kind, and a denied read leaves it exactly as it was.
TEST_P(GdprSpec, CollectionReadAppendsAndDenialLeavesTheVectorAlone) {
  auto store = Make();
  ASSERT_TRUE(store->Open().ok());
  const Actor ctrl = Actor::Controller();
  ASSERT_TRUE(store->CreateRecord(ctrl, MakeRec("k1", "neo", {"ads"}, {"p1"}))
                  .ok());
  ASSERT_TRUE(store->CreateRecord(ctrl, MakeRec("k2", "neo", {"ads"}, {"p1"}))
                  .ok());
  const GdprRecord held = MakeRec("held", "someone-else");
  const std::pair<CollectionKind, std::string> reads[] = {
      {CollectionKind::kMetaByUser, "neo"},
      {CollectionKind::kMetaByPurpose, "ads"},
      {CollectionKind::kMetaBySharing, "p1"},
      {CollectionKind::kRecordsByUser, "neo"},
      {CollectionKind::kAll, ""}};
  for (const auto& [kind, value] : reads) {
    SCOPED_TRACE(ops::OpClassName(CollectionOpClass(kind)));
    std::vector<GdprRecord> out = {held};
    ASSERT_TRUE(store->ReadCollection(ctrl, kind, value, &out).ok());
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].key, "held");
    EXPECT_EQ(out[0].data, held.data);
    EXPECT_EQ(KeysOf({out.begin() + 1, out.end()}),
              (std::set<std::string>{"k1", "k2"}));

    std::vector<GdprRecord> denied = {held};
    EXPECT_TRUE(store
                    ->ReadCollection(Actor::Customer("smith"), kind, value,
                                     &denied)
                    .IsPermissionDenied());
    ASSERT_EQ(denied.size(), 1u);
    EXPECT_EQ(denied[0].key, held.key);
    EXPECT_EQ(denied[0].data, held.data);
    EXPECT_EQ(denied[0].metadata.user, held.metadata.user);
  }
  ASSERT_TRUE(store->Close().ok());
}

// Every list element reads back as itself on every engine: reldb keeps a
// list as one '|'-joined column, so an element that is empty or holds a
// '|' is refused at the door, and nothing is written.
TEST_P(GdprSpec, ListElementsThatCannotRoundTripAreRefused) {
  auto store = Make();
  ASSERT_TRUE(store->Open().ok());
  const Actor controller = Actor::Controller();
  const std::vector<std::vector<std::string>> bad = {
      {"ads|fraud"}, {""}, {"ads", ""}, {"|"}};
  for (const auto& list : bad) {
    SCOPED_TRACE(JoinStrings(list, ','));
    GdprRecord rec = MakeRec("k-bad", "neo", list);
    EXPECT_EQ(store->CreateRecord(controller, rec).code(),
              StatusCode::kInvalidArgument);
    rec = MakeRec("k-bad", "neo", {"ads"}, list);
    EXPECT_EQ(store->CreateRecord(controller, rec).code(),
              StatusCode::kInvalidArgument);
    rec = MakeRec("k-bad", "neo");
    rec.metadata.objections = list;
    EXPECT_EQ(store->CreateRecord(controller, rec).code(),
              StatusCode::kInvalidArgument);
    EXPECT_TRUE(
        store->ReadDataByKey(controller, "k-bad").status().IsNotFound());
  }
  ASSERT_TRUE(
      store->CreateRecord(controller, MakeRec("k1", "neo", {"ads"})).ok());
  for (const auto& list : bad) {
    SCOPED_TRACE(JoinStrings(list, ','));
    MetadataUpdate purposes, objections, shared;
    purposes.purposes = list;
    objections.objections = list;
    shared.shared_with = list;
    for (const MetadataUpdate* u : {&purposes, &objections, &shared}) {
      EXPECT_EQ(store->UpdateMetadataByKey(controller, "k1", *u).code(),
                StatusCode::kInvalidArgument);
    }
  }
  // Nothing was written: k1 is as created, and the "fraud" processor that
  // "ads|fraud" would have let in on reldb is still denied.
  auto meta = store->ReadMetadataByKey(controller, "k1");
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta.value().purposes, std::vector<std::string>{"ads"});
  EXPECT_TRUE(meta.value().objections.empty());
  EXPECT_TRUE(meta.value().shared_with.empty());
  EXPECT_TRUE(store->ReadDataByKey(Actor::Processor("p", "fraud"), "k1")
                  .status()
                  .IsPermissionDenied());
}

TEST_P(GdprSpec, IndexedAndScanPathsAgree) {
  SimulatedClock clock(1000);
  auto store = Make({&clock});
  ASSERT_TRUE(store->Open().ok());
  for (size_t i = 0; i < 300; ++i) {
    GdprRecord rec = MakeRec(StringPrintf("k%03zu", i),
                             StringPrintf("user-%zu", i % 10),
                             {StringPrintf("pur-%zu", i % 5)});
    if (i % 3 == 0) {
      rec.metadata.shared_with = {StringPrintf("partner-%zu", i % 4)};
    }
    if (i % 7 == 0) rec.metadata.expiry_micros = 5000 + int64_t(i);
    ASSERT_TRUE(store->CreateRecord(Actor::Controller(), rec).ok());
  }
  const Actor user3 = Actor::Customer("user-3");
  auto by_user = store->ReadMetadataByUser(user3, "user-3");
  ASSERT_TRUE(by_user.ok());
  EXPECT_EQ(by_user.value().size(), 30u);
  for (const auto& r : by_user.value()) EXPECT_TRUE(r.data.empty());
  auto full = store->ReadRecordsByUser(user3, "user-3");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(KeysOf(full.value()), KeysOf(by_user.value()));
  for (const auto& r : full.value()) EXPECT_EQ(r.data, "data-" + r.key);

  auto by_purpose = store->ReadMetadataByPurpose(Actor::Controller(), "pur-2");
  ASSERT_TRUE(by_purpose.ok());
  EXPECT_EQ(by_purpose.value().size(), 60u);
  auto by_sharing =
      store->ReadMetadataBySharing(Actor::Regulator(), "partner-0");
  ASSERT_TRUE(by_sharing.ok());
  // i % 3 == 0 and i % 4 == 0 -> i % 12 == 0 -> 25 of 300.
  EXPECT_EQ(KeysOf(by_sharing.value()).size(), 25u);
  for (const auto& r : by_sharing.value()) EXPECT_TRUE(r.data.empty());

  clock.AdvanceMicros(10000);
  auto reclaimed = store->DeleteExpiredRecords(Actor::Controller());
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_EQ(reclaimed.value(), 43u);  // ceil(300/7)
  EXPECT_EQ(store->RecordCount(), 300u - 43u);

  auto erased = store->DeleteRecordsByUser(user3, "user-3");
  ASSERT_TRUE(erased.ok());
  // user-3 owns i in {3,13,...,293}; those with i % 7 == 0 were already
  // reclaimed by TTL above.
  size_t expect = 0;
  for (size_t i = 3; i < 300; i += 10) {
    if (i % 7 != 0) ++expect;
  }
  EXPECT_EQ(erased.value(), expect);
  EXPECT_TRUE(store->ReadMetadataByUser(user3, "user-3").value().empty());
  EXPECT_TRUE(store->VerifyDeletion(Actor::Regulator(), "k003").value());
}

// Masking is the policy layer's rule, whatever the engine does with the
// flag it is handed: the three metadata queries carry no payload, on plain
// and encrypted stores, and the subject's export (G 15/20) carries all of it.
TEST_P(GdprSpec, MaskedQueriesCarryNoPayloadButExportsDo) {
  for (const bool encrypt : {false, true}) {
    SCOPED_TRACE(encrypt ? "encrypt_at_rest" : "plain");
    auto store = Make({nullptr, nullptr, encrypt});
    ASSERT_TRUE(store->Open().ok());
    for (size_t i = 0; i < 40; ++i) {
      ASSERT_TRUE(store
                      ->CreateRecord(Actor::Controller(),
                                     MakeRec(StringPrintf("k%02zu", i),
                                             StringPrintf("user-%zu", i % 2),
                                             {"ads"}, {"partner"}))
                      .ok());
    }
    const Actor subject = Actor::Customer("user-1");
    const std::vector<StatusOr<std::vector<GdprRecord>>> masked = {
        store->ReadMetadataByUser(subject, "user-1"),
        store->ReadMetadataByPurpose(Actor::Controller(), "ads"),
        store->ReadMetadataBySharing(Actor::Regulator(), "partner")};
    for (const auto& answer : masked) {
      ASSERT_TRUE(answer.ok());
      EXPECT_FALSE(answer.value().empty());
      for (const auto& r : answer.value()) {
        EXPECT_TRUE(r.data.empty()) << r.key;
        EXPECT_FALSE(r.metadata.user.empty()) << r.key;
      }
    }
    auto exported = store->ReadRecordsByUser(subject, "user-1");
    ASSERT_TRUE(exported.ok());
    EXPECT_EQ(exported.value().size(), 20u);
    for (const auto& r : exported.value()) EXPECT_EQ(r.data, "data-" + r.key);
  }
}

// The right to be forgotten reaches records that expired but were not yet
// reclaimed: their bytes go now, with evidence.
TEST_P(GdprSpec, DeleteByKeyErasesExpiredRecords) {
  SimulatedClock clock(1000);
  auto store = Make({&clock});
  ASSERT_TRUE(store->Open().ok());
  GdprRecord rec = MakeRec("k1", "neo");
  rec.metadata.expiry_micros = 2000;
  ASSERT_TRUE(store->CreateRecord(Actor::Controller(), rec).ok());
  clock.AdvanceMicros(5000);
  EXPECT_TRUE(store->ReadDataByKey(Actor::Customer("neo"), "k1")
                  .status()
                  .IsNotFound());
  ASSERT_TRUE(store->DeleteRecordByKey(Actor::Customer("neo"), "k1").ok());
  EXPECT_EQ(store->RecordCount(), 0u);
  EXPECT_TRUE(store->VerifyDeletion(Actor::Regulator(), "k1").value());
  EXPECT_EQ(store->DeleteExpiredRecords(Actor::Controller()).value(), 0u);
}

// At-rest corruption: a record whose sealed bytes no longer authenticate is
// personal data the store can no longer produce. Every read or erasure that
// meets it says DataLoss — never an answer that looks complete.
TEST_P(GdprSpec, AtRestCorruptionIsDataLossNotAShorterAnswer) {
  MemEnv env;
  StoreSetup setup;
  setup.env = &env;
  setup.encrypt = true;
  {
    auto store = Make(setup);
    ASSERT_TRUE(store->Open().ok());
    for (int i = 0; i < 3; ++i) {
      // No purposes or partners: the log's last frame is k2's record.
      const GdprRecord rec = MakeRec("k" + std::to_string(i), "neo", {});
      ASSERT_TRUE(store->CreateRecord(Actor::Controller(), rec).ok());
    }
    ASSERT_TRUE(store->Close().ok());
  }
  // Flip a byte near the end of k2's sealed bytes. memkv's 'S' frame ends
  // with an 8-byte expiry after the MAC; reldb's row ends with its sealed
  // block, so the byte 19 from the end is ciphertext.
  FlipLogBit(&env, [&](const std::string& log) {
    return log.size() - (memkv() ? 9 : 19);
  });

  auto store = Make(setup);
  ASSERT_TRUE(store->Open().ok());
  const Actor ctrl = Actor::Controller();
  size_t seen = 0;
  Status scan = store->ScanRecords(ctrl, [&](const GdprRecord&) {
    ++seen;
    return true;
  });
  EXPECT_TRUE(scan.IsDataLoss()) << scan.ToString();
  EXPECT_EQ(seen, 2u);
  auto* kv = dynamic_cast<KvGdprStore*>(store.get());
  if (kv) {
    // The indexed store's Open-time rebuild met the record once already.
    EXPECT_EQ(kv->raw()->ScanDecryptFailures(), GetParam().indexed ? 2u : 1u);
  }
  // reldb seals a row's key with its other string cells, so its key
  // index holds no entry for k2 and no key probe can rule k2 out; memkv
  // keys are in the clear.
  EXPECT_EQ(store->ReadDataByKey(ctrl, "k0").ok(), memkv());
  EXPECT_TRUE(store->ReadDataByKey(ctrl, "k2").status().IsDataLoss());
  EXPECT_TRUE(store->VerifyDeletion(ctrl, "k2").status().IsDataLoss());
  EXPECT_TRUE(store->ReadMetadataByUser(ctrl, "neo").status().IsDataLoss());
  EXPECT_TRUE(store->ReadRecordsByUser(ctrl, "neo").status().IsDataLoss());
  EXPECT_TRUE(store->DeleteRecordsByUser(ctrl, "neo").status().IsDataLoss());
  // A sweep cannot vouch for a TTL it cannot read. reldb keeps expiry in an
  // unsealed column, so its expiry probe, by index or by scan, still knows
  // k2 never expires.
  if (memkv()) {
    EXPECT_TRUE(store->DeleteExpiredRecords(ctrl).status().IsDataLoss());
  } else {
    auto swept = store->DeleteExpiredRecords(ctrl);
    ASSERT_TRUE(swept.ok()) << swept.status().ToString();
    EXPECT_EQ(swept.value(), 0u);
  }
  if (kv) {
    // A slot migration built on a partial export would drop the record.
    EXPECT_TRUE(kv->ExportSlot(0, 1).status().IsDataLoss());
  }
}

// A row whose indexed cell no longer authenticates is missing from that
// index, and an indexed answer on that column must say so rather than
// answer OK without it. reldb seals a row's string cells as one block, so
// one flipped tag byte makes all of k2 unreadable: its user and purposes
// cells, and its key, so even a key probe cannot rule k2 out. memkv seals
// each record whole, under a key in the clear.
TEST_P(GdprSpec, UnreadableUserCellIsDataLossNotAMiss) {
  MemEnv env;
  StoreSetup setup;
  setup.env = &env;
  setup.encrypt = true;
  {
    auto store = Make(setup);
    ASSERT_TRUE(store->Open().ok());
    for (int i = 0; i < 3; ++i) {
      const GdprRecord rec = MakeRec("k" + std::to_string(i), "neo", {"ads"});
      ASSERT_TRUE(store->CreateRecord(Actor::Controller(), rec).ok());
    }
    ASSERT_TRUE(store->Close().ok());
  }
  // k2's record is the last frame. memkv's 'S' frame ends with an 8-byte
  // expiry after the MAC; reldb's row ends with its sealed block's MAC.
  FlipLogBit(&env, [&](const std::string& log) {
    return log.size() - (memkv() ? 9 : 1);
  });

  auto store = Make(setup);
  ASSERT_TRUE(store->Open().ok());
  const Actor ctrl = Actor::Controller();
  EXPECT_TRUE(store->ReadMetadataByUser(ctrl, "neo").status().IsDataLoss());
  EXPECT_TRUE(store->ReadRecordsByUser(ctrl, "neo").status().IsDataLoss());
  EXPECT_TRUE(store->ReadMetadataByPurpose(ctrl, "ads").status().IsDataLoss());
  EXPECT_EQ(store->ReadDataByKey(ctrl, "k0").ok(), memkv());
  // The two readable records are still appended before the DataLoss.
  const std::pair<CollectionKind, std::string> reads[] = {
      {CollectionKind::kMetaByUser, "neo"},
      {CollectionKind::kMetaByPurpose, "ads"},
      {CollectionKind::kRecordsByUser, "neo"}};
  for (const auto& [kind, value] : reads) {
    std::vector<GdprRecord> seen;
    const Status s = store->ReadCollection(ctrl, kind, value, &seen);
    EXPECT_TRUE(s.IsDataLoss()) << value << ": " << s.ToString();
    EXPECT_EQ(seen.size(), 2u) << value;
  }
}

// Every acked write is whole after a restart, whichever single log write
// fails: an upsert acks only once its record, its purpose and sharing index
// rows, and the clearing of an old tombstone are all durable.
TEST_P(GdprSpec, AckedUpsertSurvivesAnyFailedLogWrite) {
  const GdprRecord rec = MakeRec("k1", "neo", {"ads"}, {"p1"});
  auto workload = [&](GdprStore* store) {
    const Actor ctrl = Actor::Controller();
    return store->CreateRecord(ctrl, rec).ok() &&
           store->DeleteRecordByKey(ctrl, "k1").ok() &&
           store->CreateRecord(ctrl, rec).ok();
  };
  uint64_t opened_at = 0, total = 0;
  {
    MemEnv mem;
    FaultEnv fenv(&mem);
    auto store = Make({nullptr, &fenv});
    ASSERT_TRUE(store->Open().ok());
    opened_at = fenv.op_count();
    ASSERT_TRUE(workload(store.get()));
    ASSERT_TRUE(store->Close().ok());
    total = fenv.op_count();
  }
  size_t acked_runs = 0;
  for (uint64_t i = opened_at + 1; i <= total; ++i) {
    SCOPED_TRACE("failing log op " + std::to_string(i));
    MemEnv mem;
    FaultEnv fenv(&mem);
    FaultPlan plan;
    plan.fail_at_op = i;
    fenv.set_plan(plan);
    bool acked = false;
    {
      auto store = Make({nullptr, &fenv});
      ASSERT_TRUE(store->Open().ok());
      acked = workload(store.get());
      (void)store->Close().ok();
    }
    if (!acked) continue;
    ++acked_runs;
    auto store = Make({nullptr, &mem});
    ASSERT_TRUE(store->Open().ok());
    const Actor ctrl = Actor::Controller();
    EXPECT_TRUE(store->ReadDataByKey(ctrl, "k1").ok());
    EXPECT_EQ(KeysOf(store->ReadMetadataByPurpose(ctrl, "ads").value()),
              std::set<std::string>{"k1"});
    EXPECT_EQ(KeysOf(store->ReadMetadataBySharing(ctrl, "p1").value()),
              std::set<std::string>{"k1"});
    EXPECT_EQ(store->StatsSnapshot().GaugeValue("gdpr_tombstones"), 0);
  }
  // A failure inside Close() leaves the three acks standing.
  EXPECT_GT(acked_runs, 0u);
}

// Log before apply: a write whose first engine-log append fails returns an
// error and leaves every answer as it was, live and after a restart. A
// write applied before its log failed would still be served, and a
// compaction (or checkpoint) would then make it durable.
TEST_P(GdprSpec, FailedLogAppendChangesNothing) {
  MemEnv mem;
  FaultEnv fenv(&mem);
  const Actor ctrl = Actor::Controller();
  auto store = Make({nullptr, &fenv});
  ASSERT_TRUE(store->Open().ok());
  ASSERT_TRUE(store->CreateRecord(ctrl, MakeRec("k1", "neo", {"ads"})).ok());
  ASSERT_TRUE(store->CreateRecord(ctrl, MakeRec("k2", "neo")).ok());
  auto expect_unchanged = [&](GdprStore* s, const std::string& step) {
    SCOPED_TRACE(step);
    EXPECT_TRUE(s->ReadDataByKey(ctrl, "k0").status().IsNotFound());
    auto k1 = s->ReadDataByKey(ctrl, "k1");
    ASSERT_TRUE(k1.ok()) << k1.status().ToString();
    EXPECT_EQ(k1.value().data, "data-k1");
    EXPECT_TRUE(s->ReadDataByKey(ctrl, "k2").ok());
    EXPECT_EQ(KeysOf(s->ReadMetadataByUser(ctrl, "neo").value()),
              (std::set<std::string>{"k1", "k2"}));
    EXPECT_EQ(KeysOf(s->ReadMetadataByPurpose(ctrl, "ads").value()),
              std::set<std::string>{"k1"});
    EXPECT_FALSE(s->VerifyDeletion(Actor::Regulator(), "k2").value());
  };
  // Fails every append to the engine log, then heals the store.
  auto with_failing_log = [&](const std::string& step,
                              const std::function<Status()>& write) {
    FaultPlan plan;
    plan.fail_prob[int(FaultOpKind::kAppend)] = 1.0;
    plan.path_filter = "spec.log";
    fenv.set_plan(plan);
    EXPECT_FALSE(write().ok()) << step;
    fenv.ClearFaults();
    ASSERT_TRUE(store->CompactNow(ctrl).ok()) << step;
    expect_unchanged(store.get(), step);
  };
  with_failing_log("create", [&] {
    return store->CreateRecord(ctrl, MakeRec("k0", "neo", {"ads"}));
  });
  with_failing_log("update",
                   [&] { return store->UpdateDataByKey(ctrl, "k1", "new"); });
  with_failing_log("delete",
                   [&] { return store->DeleteRecordByKey(ctrl, "k2"); });
  ASSERT_TRUE(store->Close().ok());
  auto reopened = Make({nullptr, &mem});
  ASSERT_TRUE(reopened->Open().ok());
  expect_unchanged(reopened.get(), "reopen");
}

// Updates that reshuffle a record's attributes, duplicates included, leave
// every by-user, by-purpose and by-sharing answer exact: an index that
// diffs old against new metadata must drop exactly the pairs that left and
// add exactly the ones that arrived.
TEST_P(GdprSpec, ReshuffledAttributesKeepEveryQueryExact) {
  auto store = Make();
  ASSERT_TRUE(store->Open().ok());
  const Actor ctrl = Actor::Controller();
  std::map<std::string, GdprRecord> model;
  auto create = [&](GdprRecord rec) {
    ASSERT_TRUE(store->CreateRecord(ctrl, rec).ok());
    model[rec.key] = std::move(rec);
  };
  auto update = [&](const std::string& key, const MetadataUpdate& u) {
    ASSERT_TRUE(store->UpdateMetadataByKey(ctrl, key, u).ok());
    GdprMetadata& m = model[key].metadata;
    if (u.user) m.user = *u.user;
    if (u.purposes) m.purposes = *u.purposes;
    if (u.shared_with) m.shared_with = *u.shared_with;
  };
  auto expect_exact = [&](const std::string& step) {
    SCOPED_TRACE(step);
    for (const std::string user : {"neo", "trinity"}) {
      std::set<std::string> want;
      for (const auto& [k, r] : model) {
        if (r.metadata.user == user) want.insert(k);
      }
      EXPECT_EQ(KeysOf(store->ReadMetadataByUser(ctrl, user).value()), want)
          << user;
    }
    for (const std::string purpose : {"a", "b", "c"}) {
      std::set<std::string> want;
      for (const auto& [k, r] : model) {
        if (r.metadata.HasPurpose(purpose)) want.insert(k);
      }
      EXPECT_EQ(KeysOf(store->ReadMetadataByPurpose(ctrl, purpose).value()),
                want)
          << purpose;
    }
    for (const std::string partner : {"p", "q", "r"}) {
      std::set<std::string> want;
      for (const auto& [k, r] : model) {
        if (r.metadata.SharedWith(partner)) want.insert(k);
      }
      EXPECT_EQ(KeysOf(store->ReadMetadataBySharing(ctrl, partner).value()),
                want)
          << partner;
    }
    if (memkv() && GetParam().indexed) {
      // Answers are revalidated against each record, which hides a stale
      // posting; the index's own census does not.
      int64_t purposes = 0, partners = 0;
      for (const auto& [k, r] : model) {
        const auto& m = r.metadata;
        purposes += std::set<std::string>(m.purposes.begin(), m.purposes.end())
                        .size();
        partners +=
            std::set<std::string>(m.shared_with.begin(), m.shared_with.end())
                .size();
      }
      const obs::RegistrySnapshot snap = store->StatsSnapshot();
      EXPECT_EQ(snap.GaugeValue("gdpr_index_entries{index=\"user\"}"),
                int64_t(model.size()));
      EXPECT_EQ(snap.GaugeValue("gdpr_index_entries{index=\"purpose\"}"),
                purposes);
      EXPECT_EQ(snap.GaugeValue("gdpr_index_entries{index=\"sharing\"}"),
                partners);
    }
  };
  create(MakeRec("k1", "neo", {"a", "a", "b"}, {"p", "p", "q"}));
  create(MakeRec("k2", "neo", {"b"}, {"q"}));
  create(MakeRec("k3", "trinity", {"c"}, {}));
  expect_exact("created");

  MetadataUpdate purposes;
  purposes.purposes = std::vector<std::string>{"b", "c"};
  update("k1", purposes);
  expect_exact("purposes {a,a,b} -> {b,c}");

  MetadataUpdate user;
  user.user = "trinity";
  update("k1", user);
  expect_exact("user neo -> trinity");

  MetadataUpdate sharing;
  sharing.shared_with = std::vector<std::string>{"q", "r", "r"};
  update("k1", sharing);
  expect_exact("shared_with {p,p,q} -> {q,r,r}");

  sharing.shared_with = std::vector<std::string>{};
  update("k1", sharing);
  expect_exact("shared_with -> empty");

  MetadataUpdate all;
  all.user = "neo";
  all.purposes = std::vector<std::string>{"a", "a"};
  all.shared_with = std::vector<std::string>{"p"};
  update("k1", all);
  update("k2", all);
  expect_exact("everything at once");

  ASSERT_TRUE(store->DeleteRecordByKey(ctrl, "k1").ok());
  model.erase("k1");
  expect_exact("k1 erased");
}

// Index hits are hints. While a writer flips records between purposes and
// partners, a query may miss a record mid-flip but must never return one
// that does not carry the queried attribute.
TEST_P(GdprSpec, QueryHitsMatchTheirPredicateUnderConcurrentUpdates) {
  auto store = Make();
  ASSERT_TRUE(store->Open().ok());
  const Actor ctrl = Actor::Controller();
  constexpr int kKeys = 8;
  for (int k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(store
                    ->CreateRecord(ctrl, MakeRec("k" + std::to_string(k), "neo",
                                                 {"a"}, {"x"}))
                    .ok());
  }
  std::atomic<bool> done{false};
  std::atomic<size_t> violations{0}, failures{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      auto by_purpose = store->ReadMetadataByPurpose(ctrl, "a");
      auto by_sharing = store->ReadMetadataBySharing(ctrl, "x");
      if (!by_purpose.ok() || !by_sharing.ok()) {
        failures.fetch_add(1);
        continue;
      }
      for (const auto& r : by_purpose.value()) {
        if (!r.metadata.HasPurpose("a")) violations.fetch_add(1);
      }
      for (const auto& r : by_sharing.value()) {
        if (!r.metadata.SharedWith("x")) violations.fetch_add(1);
      }
    }
  });
  for (int i = 0; i < 10000; ++i) {
    const bool flip = (i / kKeys) % 2 == 0;
    MetadataUpdate u;
    u.purposes = std::vector<std::string>{flip ? "b" : "a"};
    u.shared_with = std::vector<std::string>{flip ? "y" : "x"};
    ASSERT_TRUE(
        store->UpdateMetadataByKey(ctrl, "k" + std::to_string(i % kKeys), u)
            .ok());
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(violations.load(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Engines, GdprSpec,
                         testing::Values(SpecParam{Engine::kMemkv, false},
                                         SpecParam{Engine::kMemkv, true},
                                         SpecParam{Engine::kReldb, false},
                                         SpecParam{Engine::kReldb, true}),
                         ParamName);

}  // namespace
}  // namespace gdpr
