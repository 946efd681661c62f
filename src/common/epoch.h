// Epoch-based reclamation (EBR) for read-mostly hot paths.
//
// The problem: MemKV point Gets used to take a per-shard shared_mutex, so
// every read bounced the lock's cache line between cores and stalled behind
// writers. The fix is the classic RCU/EBR shape (BonsaiKV, UStore, Fraser's
// thesis): readers announce "I am reading" by pinning the current epoch in a
// per-thread slot — one uncontended store each way — and writers never block
// them; a writer replaces a pointer and *retires* the old object instead of
// deleting it. Retired objects are freed only after every thread that could
// have seen them has left its critical section, which the epoch counter
// makes checkable without tracking individual pointers:
//
//   * a global epoch E advances only when every pinned slot is at E, and
//   * an object retired at epoch e is freed once E >= e + 2 — by then any
//     reader that could hold it (pinned at e or e+1... no: pinned at e-1 or
//     e) has unpinned, because two advances each required all pinned slots
//     to be current.
//
// One manager per process (Global()): epochs describe *threads*, not data
// structures, so a single slot array serves every MemKV instance. Reads pin
// for the duration of one lookup (microseconds); writers retire under their
// existing shard writer lock and reclamation is driven from writer paths
// (amortized) and the expiry crons, never from readers.
//
// TSAN-clean: slots and the epoch counter are seq_cst atomics; the retire
// list is mutex-guarded (retire/reclaim run on write paths, which are not
// the scalability target).

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace gdpr {

class EpochGuard;

class EpochManager {
 public:
  // Upper bound on threads concurrently inside read-side critical sections.
  // Slots are released on thread exit, so this bounds *live* threads, not
  // threads ever created.
  static constexpr size_t kMaxThreads = 512;

  static EpochManager& Global() {
    static EpochManager mgr;
    return mgr;
  }

  // Schedules `p` for deletion once no reader can still hold it. Safe to
  // call while holding shard/writer locks (reclaim never takes caller
  // locks). `deleter` must be a captureless callable.
  void RetireRaw(void* p, void (*deleter)(void*)) {
    bool tick = false;
    {
      std::lock_guard<std::mutex> l(retire_mu_);
      retired_.push_back(Retired{p, deleter, global_epoch_.load()});
      retired_count_.store(retired_.size(), std::memory_order_relaxed);
      tick = retired_.size() % kReclaimEvery == 0;
    }
    // Amortized reclaim from the retiring (writer) path so memory is
    // bounded even if no cron runs.
    if (tick) TryReclaim();
  }

  template <typename T>
  void Retire(T* p) {
    RetireRaw(p, [](void* q) { delete static_cast<T*>(q); });
  }

  // Retires a whole batch under one mutex acquisition — table growth
  // retires O(n) nodes while holding a shard writer lock, and n
  // round-trips through the global retire mutex there would serialize
  // every other writer in the process against one shard's growth.
  void RetireBatch(std::vector<std::pair<void*, void (*)(void*)>>&& items) {
    if (items.empty()) return;
    bool tick = false;
    {
      std::lock_guard<std::mutex> l(retire_mu_);
      const uint64_t e = global_epoch_.load();
      const size_t before = retired_.size();
      retired_.reserve(before + items.size());
      for (auto& [p, deleter] : items) {
        retired_.push_back(Retired{p, deleter, e});
      }
      retired_count_.store(retired_.size(), std::memory_order_relaxed);
      tick = before / kReclaimEvery != retired_.size() / kReclaimEvery;
    }
    items.clear();
    if (tick) TryReclaim();
  }

  // One reclamation attempt: advance the epoch if every pinned reader is
  // current, then free everything retired >= 2 epochs ago. Returns the
  // number of objects freed. Never blocks on readers.
  size_t TryReclaim() {
    const uint64_t cur = global_epoch_.load(std::memory_order_seq_cst);
    bool all_current = true;
    // The shared overflow slot first: readers beyond kMaxThreads pin here
    // (possibly at an older epoch than current — conservative, it just
    // blocks the advance), so they are visible to this scan exactly like
    // slotted readers, with no separate unsynchronized fast-path flag.
    {
      const uint64_t w = overflow_slot_.load(std::memory_order_seq_cst);
      const uint64_t e = w & kOverflowEpochMask;
      if ((w >> kOverflowCountShift) != 0 && e < cur) all_current = false;
    }
    // The whole fixed array, never a high-water window: a window bound
    // loaded before a brand-new thread registered could hide its freshly
    // pinned slot from two consecutive scans — two unjustified advances is
    // exactly a use-after-free. Scanning all slots keeps the argument
    // purely about the seq_cst pin protocol: either this scan sees the
    // pin, or the pinning thread's re-check sees the advanced epoch and
    // re-announces. 512 relaxed-ish loads amortize to nothing.
    for (const Slot& s : slots_) {
      if (!all_current) break;
      const uint64_t e = s.epoch.load(std::memory_order_seq_cst);
      if (e != kIdle && e < cur) all_current = false;
    }
    if (all_current) {
      // CAS, not store: each advance must be justified by a scan at that
      // epoch; a racing reclaimer that lost the race re-scans.
      uint64_t expected = cur;
      global_epoch_.compare_exchange_strong(expected, cur + 1,
                                            std::memory_order_seq_cst);
    }
    // Free outside the lock: deleters run string/vector destructors and a
    // racing Retire must not wait on them.
    std::vector<Retired> free_now;
    {
      std::lock_guard<std::mutex> l(retire_mu_);
      const uint64_t g = global_epoch_.load(std::memory_order_seq_cst);
      size_t kept = 0;
      for (auto& r : retired_) {
        if (r.epoch + 2 <= g) {
          free_now.push_back(r);
        } else {
          retired_[kept++] = r;
        }
      }
      retired_.resize(kept);
      retired_count_.store(kept, std::memory_order_relaxed);
    }
    for (auto& r : free_now) r.deleter(r.p);
    return free_now.size();
  }

  // Best-effort full drain (Close/teardown hygiene): repeats TryReclaim
  // while it makes progress. With readers quiescent this empties the list
  // in <= 3 passes; with readers active it simply stops early — leftovers
  // are freed by later activity or by the manager's destructor.
  void DrainRetired() {
    for (int i = 0; i < 8 && retired_count_.load() > 0; ++i) {
      if (TryReclaim() == 0 && i > 2) break;
    }
  }

  uint64_t GlobalEpoch() const {
    return global_epoch_.load(std::memory_order_seq_cst);
  }
  size_t RetiredCount() const {
    return retired_count_.load(std::memory_order_relaxed);
  }

  // Total read-side pins since process start (outer guards only; nested
  // guards ride their outer pin). Each slot's counter lives on that
  // thread's own cache line, so counting adds no cross-thread traffic.
  uint64_t TotalPins() const {
    uint64_t n = overflow_pins_.load(std::memory_order_relaxed);
    for (const auto& s : slots_) n += s.pins.load(std::memory_order_relaxed);
    return n;
  }

  ~EpochManager() {
    // Static teardown: every thread is gone, nothing is pinned.
    for (auto& r : retired_) r.deleter(r.p);
  }

 private:
  friend class EpochGuard;

  static constexpr uint64_t kIdle = 0;     // slot value: not in a read section
  static constexpr size_t kReclaimEvery = 256;

  struct alignas(64) Slot {
    std::atomic<uint64_t> epoch{kIdle};
    std::atomic<bool> in_use{false};
    // Guard nesting depth. Only the owning thread touches it, so it needs
    // no atomicity; it makes EpochGuard reentrant (a Get inside a Scan
    // callback must not unpin the Scan's epoch when it returns).
    uint32_t depth = 0;
    // Outer pins taken through this slot; written only by the owner
    // (relaxed — same cache line the pin already dirties), summed by
    // TotalPins for the observability layer.
    std::atomic<uint64_t> pins{0};
  };

  struct Retired {
    void* p;
    void (*deleter)(void*);
    uint64_t epoch;
  };

  EpochManager() = default;
  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  Slot* AcquireSlot() {
    for (size_t i = 0; i < kMaxThreads; ++i) {
      bool expected = false;
      if (slots_[i].in_use.compare_exchange_strong(expected, true)) {
        return &slots_[i];
      }
    }
    return nullptr;  // > kMaxThreads concurrent readers; caller falls back
  }

  void ReleaseSlot(Slot* s) {
    s->epoch.store(kIdle, std::memory_order_release);
    s->in_use.store(false, std::memory_order_release);
  }

  // One slot per (thread, process); released when the thread exits. The
  // manager is the function-local-static singleton, which outlives every
  // thread_local (thread-storage destructors run first), so the holder's
  // destructor never touches a dead manager.
  Slot* ThreadSlot() {
    struct Holder {
      Slot* slot = nullptr;
      ~Holder() {
        if (slot) Global().ReleaseSlot(slot);
      }
    };
    static thread_local Holder holder;
    if (!holder.slot) holder.slot = AcquireSlot();
    return holder.slot;
  }

  std::atomic<uint64_t> global_epoch_{1};
  std::array<Slot, kMaxThreads> slots_;

  // Shared slot for readers that arrive after every per-thread slot is
  // taken (> kMaxThreads live reader threads). Packed (count << 48) |
  // epoch: the first sharer announces with the same announce-recheck
  // protocol as a private slot; later sharers just bump the count and
  // inherit the (older-or-equal) announced epoch, which is conservative —
  // the scan above refuses to advance past it. No slotless mode exists,
  // so every reader is always visible to TryReclaim.
  static constexpr int kOverflowCountShift = 48;
  static constexpr uint64_t kOverflowEpochMask =
      (uint64_t(1) << kOverflowCountShift) - 1;

  void OverflowPin() {
    for (;;) {
      uint64_t w = overflow_slot_.load(std::memory_order_seq_cst);
      if ((w >> kOverflowCountShift) != 0) {
        // Join the announced epoch.
        if (overflow_slot_.compare_exchange_weak(
                w, w + (uint64_t(1) << kOverflowCountShift),
                std::memory_order_seq_cst)) {
          return;
        }
        continue;
      }
      // First sharer: announce, then re-check the global (same protocol
      // as EpochGuard's slotted pin).
      uint64_t e = global_epoch_.load(std::memory_order_relaxed);
      uint64_t desired = (uint64_t(1) << kOverflowCountShift) | e;
      if (!overflow_slot_.compare_exchange_weak(w, desired,
                                                std::memory_order_seq_cst)) {
        continue;
      }
      for (;;) {
        const uint64_t now =
            global_epoch_.load(std::memory_order_seq_cst);
        if (now == e) return;
        // Re-announce at the newer epoch — only valid while we are still
        // the sole sharer (a joiner inherited the old announcement).
        uint64_t cur_w = (uint64_t(1) << kOverflowCountShift) | e;
        if (!overflow_slot_.compare_exchange_strong(
                cur_w, (uint64_t(1) << kOverflowCountShift) | now,
                std::memory_order_seq_cst)) {
          return;  // someone joined; the older pin stands (conservative)
        }
        e = now;
      }
    }
  }

  void OverflowUnpin() {
    for (;;) {
      uint64_t w = overflow_slot_.load(std::memory_order_seq_cst);
      const uint64_t count = w >> kOverflowCountShift;
      const uint64_t next =
          count == 1 ? 0 : w - (uint64_t(1) << kOverflowCountShift);
      if (overflow_slot_.compare_exchange_weak(w, next,
                                               std::memory_order_seq_cst)) {
        return;
      }
    }
  }

  std::mutex retire_mu_;
  std::vector<Retired> retired_;
  std::atomic<size_t> retired_count_{0};
  std::atomic<uint64_t> overflow_slot_{0};
  std::atomic<uint64_t> overflow_pins_{0};
};

// RAII read-side critical section. While alive, any pointer loaded
// (acquire) from an epoch-protected structure stays valid — writers may
// unlink it but reclamation waits for this guard to die. Keep sections
// short: a pinned epoch holds back reclamation process-wide.
class EpochGuard {
 public:
  EpochGuard() : mgr_(&EpochManager::Global()), slot_(mgr_->ThreadSlot()) {
    if (!slot_) {
      // Per-thread slots exhausted (pathological thread counts): pin the
      // shared overflow slot instead. It participates in the reclaim scan
      // exactly like a private slot — there is no invisible-reader mode —
      // and it takes no lock, so a guard that mutates the store (retiring
      // inside the read section) cannot deadlock itself. Scalability is
      // long gone at that thread count anyway.
      mgr_->OverflowPin();
      mgr_->overflow_pins_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (slot_->depth++ != 0) return;  // outer guard's (older) pin covers us
    slot_->pins.fetch_add(1, std::memory_order_relaxed);
    uint64_t e = mgr_->global_epoch_.load(std::memory_order_relaxed);
    for (;;) {
      // Announce, then re-check: the announcement must be globally visible
      // before we trust the epoch we pinned (seq_cst store/load pair gives
      // the StoreLoad ordering this needs).
      slot_->epoch.store(e, std::memory_order_seq_cst);
      const uint64_t now = mgr_->global_epoch_.load(std::memory_order_seq_cst);
      if (now == e) break;
      e = now;
    }
  }

  ~EpochGuard() {
    if (!slot_) {
      mgr_->OverflowUnpin();
      return;
    }
    if (--slot_->depth != 0) return;
    slot_->epoch.store(EpochManager::kIdle, std::memory_order_release);
  }

  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;

 private:
  EpochManager* mgr_;
  EpochManager::Slot* slot_;
};

}  // namespace gdpr
