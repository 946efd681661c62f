#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>

#include "common/clock.h"
#include "common/distributions.h"
#include "common/epoch.h"
#include "common/hash.h"
#include "common/health.h"
#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"

namespace gdpr {
namespace {

TEST(Status, RoundTrips) {
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_EQ(Status::OK().ToString(), "OK");
  Status nf = Status::NotFound("key-1");
  EXPECT_FALSE(nf.ok());
  EXPECT_TRUE(nf.IsNotFound());
  EXPECT_EQ(nf.ToString(), "NotFound: key-1");
  EXPECT_TRUE(Status::PermissionDenied().IsPermissionDenied());
}

TEST(StatusOr, ValueAndError) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  StatusOr<int> e(Status::NotFound("nope"));
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.value_or(7), 7);
  EXPECT_TRUE(e.status().IsNotFound());
}

// A report's cause explains its state: the worse state keeps its own
// cause, and a tie keeps the first report's.
TEST(HealthReport, WorseKeepsTheWorseStatesCauseAndTheFirstOnATie) {
  const HealthReport healthy;
  const HealthReport wal{HealthState::kDegradedReadOnly,
                         Status::IOError("wal fsync")};
  const HealthReport audit{HealthState::kDegradedReadOnly,
                           Status::IOError("audit fsync")};
  const HealthReport replay{HealthState::kFailed, Status::DataLoss("replay")};
  EXPECT_TRUE(Worse(healthy, healthy).cause.ok());
  EXPECT_EQ(Worse(healthy, audit).cause.message(), "audit fsync");
  EXPECT_EQ(Worse(wal, healthy).cause.message(), "wal fsync");
  EXPECT_EQ(Worse(wal, audit).cause.message(), "wal fsync");
  EXPECT_EQ(Worse(audit, wal).cause.message(), "audit fsync");
  const HealthReport worst = Worse(wal, replay);
  EXPECT_EQ(worst.state, HealthState::kFailed);
  EXPECT_TRUE(worst.cause.IsDataLoss());
}

// report() reads state and cause together, through every transition.
TEST(HealthTracker, ReportCarriesTheCauseOfItsState) {
  HealthTracker t;
  EXPECT_EQ(t.report().state, HealthState::kHealthy);
  EXPECT_TRUE(t.report().cause.ok());
  t.Degrade(Status::IOError("first"));
  t.Degrade(Status::IOError("second"));
  EXPECT_EQ(t.report().state, HealthState::kDegradedReadOnly);
  EXPECT_EQ(t.report().cause.message(), "first");
  t.Heal();
  EXPECT_TRUE(t.report().cause.ok());
  t.Fail(Status::DataLoss("replay"));
  EXPECT_EQ(t.report().state, HealthState::kFailed);
  EXPECT_TRUE(t.report().cause.IsDataLoss());
}

TEST(SimulatedClock, AdvancesDeterministically) {
  SimulatedClock clock(100);
  EXPECT_EQ(clock.NowMicros(), 100);
  clock.AdvanceMicros(50);
  EXPECT_EQ(clock.NowMicros(), 150);
  clock.AdvanceSeconds(2);
  EXPECT_EQ(clock.NowMicros(), 150 + 2000000);
}

TEST(RealClock, Monotonic) {
  Clock* c = RealClock::Default();
  const int64_t a = c->NowMicros();
  const int64_t b = c->NowMicros();
  EXPECT_LE(a, b);
}

TEST(Random, DeterministicAndBounded) {
  Random a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  Random r(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.Uniform(10), 10u);
    const double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
  EXPECT_EQ(r.NextAsciiField(24).size(), 24u);
}

TEST(Zipfian, BoundedAndSkewed) {
  ZipfianDistribution dist(1000);
  Random rng(11);
  std::vector<size_t> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t v = dist.Next(rng);
    ASSERT_LT(v, 1000u);
    counts[size_t(v)]++;
  }
  // Rank 0 must dominate the tail by a wide margin (theta = 0.99).
  EXPECT_GT(counts[0], 20u * counts[500]);
  // And the head should be a large share of all draws.
  size_t head = 0;
  for (int i = 0; i < 10; ++i) head += counts[size_t(i)];
  EXPECT_GT(head, 100000u / 4);
}

TEST(StringUtil, Formatting) {
  EXPECT_EQ(StringPrintf("%d-%s", 7, "x"), "7-x");
  const std::string big(500, 'a');
  EXPECT_EQ(StringPrintf("%s", big.c_str()), big);
  EXPECT_EQ(HumanMicros(17), "17 us");
  EXPECT_EQ(HumanMicros(4200), "4.2 ms");
  EXPECT_EQ(HumanMicros(1500000), "1.50 s");
}

TEST(StringUtil, JoinSplit) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, '|'), "a|b|c");
  EXPECT_EQ(JoinStrings({}, '|'), "");
  const auto parts = SplitString("a|b|c", '|');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "b");
  EXPECT_TRUE(SplitString("", '|').empty());
}

// Deleter that records its run for the reclamation tests.
struct RetireProbe {
  explicit RetireProbe(std::atomic<int>* counter) : freed(counter) {}
  ~RetireProbe() { freed->fetch_add(1); }
  std::atomic<int>* freed;
};

// A restarted node replays its AOF into the slots its keys hash to, so the
// slot hash is an on-disk contract: these values must never change.
TEST(Hash, SlotForKeyIsPinned) {
  struct Pin {
    const char* key;
    uint32_t num_slots;
    uint32_t slot;
  };
  const Pin pins[] = {
      {"", 16, 3},
      {"", 1024, 899},
      {"k1", 16, 11},
      {"k1", 1024, 75},
      {"k1", 16384, 2123},
      {"user0-k0", 16, 12},
      {"user0-k0", 16384, 11612},
      {"some-key", 1024, 941},
      {"some-key", 16384, 16301},
      {"key-12345", 16, 8},
      {"key-12345", 16384, 776},
  };
  for (const Pin& p : pins) {
    EXPECT_EQ(SlotForKey(p.key, p.num_slots), p.slot)
        << p.key << " / " << p.num_slots;
    EXPECT_EQ(SlotForKey(p.key, 1), 0u);
  }
  EXPECT_EQ(SlotForKey("k1", 0), 0u);
}

TEST(Epoch, RetiredObjectsFreeAfterTwoAdvances) {
  auto& mgr = EpochManager::Global();
  std::atomic<int> freed{0};
  mgr.Retire(new RetireProbe(&freed));
  // No reader pinned: two reclaim passes advance the epoch twice; the
  // third pass is free to collect (retire epoch + 2 <= global).
  for (int i = 0; i < 4 && freed.load() == 0; ++i) mgr.TryReclaim();
  EXPECT_EQ(freed.load(), 1);
}

TEST(Epoch, PinnedReaderHoldsBackReclamation) {
  auto& mgr = EpochManager::Global();
  std::atomic<int> freed{0};
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  // The guard must live on another thread: TryReclaim runs on this one,
  // and a pin parks the *thread's* slot at its pin-time epoch.
  std::thread reader([&] {
    EpochGuard guard;
    pinned.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!pinned.load()) std::this_thread::yield();
  mgr.Retire(new RetireProbe(&freed));
  for (int i = 0; i < 16; ++i) mgr.TryReclaim();
  // The reader pinned an epoch <= the retire epoch: nothing may be freed.
  EXPECT_EQ(freed.load(), 0);
  release.store(true);
  reader.join();
  for (int i = 0; i < 4 && freed.load() == 0; ++i) mgr.TryReclaim();
  EXPECT_EQ(freed.load(), 1);
}

TEST(Epoch, OverflowReadersRemainVisibleToReclaim) {
  // Exhaust every per-thread slot so the last few guards land on the
  // shared overflow slot — reclamation must treat them exactly like
  // slotted readers (no invisible-reader mode).
  auto& mgr = EpochManager::Global();
  constexpr size_t kThreads = EpochManager::kMaxThreads + 8;
  std::atomic<size_t> pinned{0};
  std::atomic<bool> release{false};
  std::atomic<int> freed{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      EpochGuard guard;
      pinned.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  }
  while (pinned.load() < kThreads) std::this_thread::yield();
  mgr.Retire(new RetireProbe(&freed));
  for (int i = 0; i < 8; ++i) mgr.TryReclaim();
  EXPECT_EQ(freed.load(), 0);
  release.store(true);
  for (auto& t : threads) t.join();
  for (int i = 0; i < 4 && freed.load() == 0; ++i) mgr.TryReclaim();
  EXPECT_EQ(freed.load(), 1);
}

TEST(Epoch, GuardsNestAndUnpin) {
  auto& mgr = EpochManager::Global();
  const uint64_t before = mgr.GlobalEpoch();
  {
    EpochGuard outer;
    EpochGuard inner;  // same thread: depth-tracked, inner must not unpin
    (void)outer;
    (void)inner;
  }
  // With every guard dead the epoch can advance again.
  mgr.TryReclaim();
  EXPECT_GE(mgr.GlobalEpoch(), before);
}

}  // namespace
}  // namespace gdpr
