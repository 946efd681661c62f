// EpochMap: the shard map behind MemKV, rebuilt for lock-free point reads.
//
// Shape: a chained hash table whose bucket heads and chain links are
// atomics. Writers still serialize per shard (the caller holds the shard's
// writer lock for every mutation), which keeps the write side a plain
// single-writer program; readers hold no lock at all — they pin an epoch
// (see common/epoch.h), acquire-load the table pointer, walk one chain, and
// copy the value out of an immutable EntryBlock.
//
// Invariants that make the reader walk safe:
//   * Node.key/.hash never change after publication; Node.block only ever
//     swings between fully-constructed immutable blocks.
//   * Unlinking a node never touches the node's own `next`, so a reader
//     standing on an unlinked node still sees the rest of its chain.
//   * Growth copies nodes into a fresh table (sharing EntryBlocks via a
//     writer-side refcount) and retires the old generation wholesale —
//     chain links of the generation a reader is walking are never rewired.
//   * Nothing a reader can reach is ever freed directly: displaced blocks,
//     unlinked nodes, and superseded tables all go through the epoch
//     manager's retire lists.

#pragma once

#include <atomic>
#include <cstdint>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/epoch.h"
#include "common/hash.h"

namespace gdpr::kv {

// Immutable once published. Shared between node generations across table
// growth; `refs` is touched only by writers (under the shard writer lock)
// and by epoch-deferred deleters, never by readers.
struct EntryBlock {
  EntryBlock(std::string v, int64_t expiry)
      : value(std::move(v)), expiry_micros(expiry) {}
  const std::string value;  // stored (possibly AEAD-sealed) bytes
  const int64_t expiry_micros;
  std::atomic<uint32_t> refs{1};
};

inline void UnrefEntryBlock(void* p) {
  auto* b = static_cast<EntryBlock*>(p);
  if (b->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete b;
}

class EpochMap {
 public:
  struct Node {
    Node(std::string k, uint64_t h, EntryBlock* b)
        : key(std::move(k)), hash(h), block(b) {}
    ~Node() { UnrefEntryBlock(block.load(std::memory_order_relaxed)); }
    const std::string key;
    const uint64_t hash;
    std::atomic<EntryBlock*> block;
    std::atomic<Node*> next{nullptr};
  };

  explicit EpochMap(size_t initial_buckets = 8)
      : table_(new Table(RoundUpPow2(initial_buckets))) {}

  ~EpochMap() {
    // Destruction contract: no concurrent readers or writers. Only the
    // current generation is freed here — retired generations already sit
    // in the epoch manager's lists and are freed by it.
    Table* t = table_.load(std::memory_order_relaxed);
    for (auto& b : t->buckets) {
      Node* n = b.load(std::memory_order_relaxed);
      while (n) {
        Node* next = n->next.load(std::memory_order_relaxed);
        delete n;
        n = next;
      }
    }
    delete t;
  }

  EpochMap(const EpochMap&) = delete;
  EpochMap& operator=(const EpochMap&) = delete;

  // ---- reader side (caller holds an EpochGuard) ---------------------------

  // Lock-free point lookup. The returned block stays valid until the
  // caller's EpochGuard dies; copy what you need before unpinning.
  const EntryBlock* Find(const std::string& key, uint64_t hash) const {
    const Table* t = table_.load(std::memory_order_acquire);
    for (const Node* n =
             t->buckets[hash & t->mask].load(std::memory_order_acquire);
         n != nullptr; n = n->next.load(std::memory_order_acquire)) {
      if (n->hash == hash && n->key == key) {
        return n->block.load(std::memory_order_acquire);
      }
    }
    return nullptr;
  }

  // Lock-free traversal of one consistent table generation. Entries
  // mutated concurrently may or may not be seen (same guarantee a snapshot
  // isolation scan gives); fn returns false to stop. Caller holds an
  // EpochGuard for the whole walk.
  template <typename Fn>  // Fn: bool(const std::string& key, const EntryBlock&)
  bool ForEachReader(Fn fn) const {
    const Table* t = table_.load(std::memory_order_acquire);
    for (const auto& bucket : t->buckets) {
      for (const Node* n = bucket.load(std::memory_order_acquire); n != nullptr;
           n = n->next.load(std::memory_order_acquire)) {
        const EntryBlock* b = n->block.load(std::memory_order_acquire);
        if (!fn(n->key, *b)) return false;
      }
    }
    return true;
  }

  // ---- writer side (caller holds the shard's writer lock) -----------------

  // Insert-or-overwrite. Returns true when the key was newly inserted;
  // on overwrite, *old_expiry/*old_value_size describe the displaced block
  // (which is retired, never freed inline).
  bool Upsert(const std::string& key, uint64_t hash, std::string stored,
              int64_t expiry_micros, int64_t* old_expiry,
              size_t* old_value_size) {
    Table* t = table_.load(std::memory_order_relaxed);
    auto& bucket = t->buckets[hash & t->mask];
    for (Node* n = bucket.load(std::memory_order_relaxed); n != nullptr;
         n = n->next.load(std::memory_order_relaxed)) {
      if (n->hash == hash && n->key == key) {
        auto* fresh = new EntryBlock(std::move(stored), expiry_micros);
        EntryBlock* old =
            n->block.exchange(fresh, std::memory_order_acq_rel);
        if (old_expiry) *old_expiry = old->expiry_micros;
        if (old_value_size) *old_value_size = old->value.size();
        // The node kept its only structural reference; hand it to the
        // reclaimer (readers may still hold the old block).
        EpochManager::Global().RetireRaw(old, UnrefEntryBlock);
        return false;
      }
    }
    auto* node =
        new Node(key, hash, new EntryBlock(std::move(stored), expiry_micros));
    node->next.store(bucket.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    bucket.store(node, std::memory_order_release);  // publish
    ++size_;
    if (size_ > t->buckets.size()) Grow();
    return true;
  }

  // Writer-side lookup (bookkeeping reads on mutation/expiry paths).
  const EntryBlock* FindLocked(const std::string& key, uint64_t hash) const {
    Table* t = table_.load(std::memory_order_relaxed);
    for (Node* n = t->buckets[hash & t->mask].load(std::memory_order_relaxed);
         n != nullptr; n = n->next.load(std::memory_order_relaxed)) {
      if (n->hash == hash && n->key == key) {
        return n->block.load(std::memory_order_relaxed);
      }
    }
    return nullptr;
  }

  // Unlink + retire. Returns true when the key existed; *old_value_size
  // receives the displaced value's size for byte accounting.
  bool Erase(const std::string& key, uint64_t hash, size_t* old_value_size) {
    Table* t = table_.load(std::memory_order_relaxed);
    auto& bucket = t->buckets[hash & t->mask];
    Node* prev = nullptr;
    for (Node* n = bucket.load(std::memory_order_relaxed); n != nullptr;
         prev = n, n = n->next.load(std::memory_order_relaxed)) {
      if (n->hash != hash || n->key != key) continue;
      Node* after = n->next.load(std::memory_order_relaxed);
      // Unlink without touching n->next: a reader standing on n keeps a
      // valid view of the rest of the chain.
      if (prev == nullptr) {
        bucket.store(after, std::memory_order_release);
      } else {
        prev->next.store(after, std::memory_order_release);
      }
      if (old_value_size) {
        *old_value_size =
            n->block.load(std::memory_order_relaxed)->value.size();
      }
      EpochManager::Global().Retire(n);  // ~Node unrefs the block
      --size_;
      return true;
    }
    return false;
  }

  // Writer-side traversal (caller excludes writers via the shard lock; used
  // by snapshot paths that already hold the shard lock shared).
  template <typename Fn>  // Fn: bool(const std::string& key, const EntryBlock&)
  bool ForEachLocked(Fn fn) const {
    Table* t = table_.load(std::memory_order_relaxed);
    for (const auto& bucket : t->buckets) {
      for (Node* n = bucket.load(std::memory_order_relaxed); n != nullptr;
           n = n->next.load(std::memory_order_relaxed)) {
        if (!fn(n->key, *n->block.load(std::memory_order_relaxed))) {
          return false;
        }
      }
    }
    return true;
  }

  // Drops every entry: publishes a fresh empty table and retires the old
  // generation (readers may be mid-walk in it).
  void Clear() {
    Table* old = table_.load(std::memory_order_relaxed);
    table_.store(new Table(8), std::memory_order_release);
    RetireGeneration(old);
    size_ = 0;
  }

  size_t size() const { return size_; }
  size_t bucket_count() const {
    return table_.load(std::memory_order_relaxed)->buckets.size();
  }

 private:
  struct Table {
    explicit Table(size_t n) : buckets(n), mask(n - 1) {}
    std::vector<std::atomic<Node*>> buckets;
    const uint64_t mask;
  };

  static size_t RoundUpPow2(size_t n) {
    size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  // Doubles the table: fresh nodes share the EntryBlocks (writer-side
  // ref bump), the new generation is published with one release store, and
  // the old generation — whose chains stay intact for in-flight readers —
  // is retired node by node.
  void Grow() {
    Table* old = table_.load(std::memory_order_relaxed);
    auto* grown = new Table(old->buckets.size() * 2);
    for (auto& bucket : old->buckets) {
      for (Node* n = bucket.load(std::memory_order_relaxed); n != nullptr;
           n = n->next.load(std::memory_order_relaxed)) {
        EntryBlock* blk = n->block.load(std::memory_order_relaxed);
        blk->refs.fetch_add(1, std::memory_order_relaxed);
        auto* copy = new Node(n->key, n->hash, blk);
        auto& slot = grown->buckets[n->hash & grown->mask];
        copy->next.store(slot.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
        slot.store(copy, std::memory_order_relaxed);
      }
    }
    table_.store(grown, std::memory_order_release);  // publish
    RetireGeneration(old);
  }

  void RetireGeneration(Table* t) {
    // One batch, one retire-mutex acquisition: this runs under the shard
    // writer lock, and per-node round-trips through the global mutex would
    // stall every other writer for the duration of a growth.
    std::vector<std::pair<void*, void (*)(void*)>> batch;
    batch.reserve(t->buckets.size() + 1);
    for (auto& bucket : t->buckets) {
      for (Node* n = bucket.load(std::memory_order_relaxed); n != nullptr;) {
        Node* next = n->next.load(std::memory_order_relaxed);
        batch.emplace_back(n, [](void* q) { delete static_cast<Node*>(q); });
        n = next;
      }
    }
    batch.emplace_back(t, [](void* q) { delete static_cast<Table*>(q); });
    EpochManager::Global().RetireBatch(std::move(batch));
  }

  std::atomic<Table*> table_;
  size_t size_ = 0;  // guarded by the caller's shard writer lock
};

// EpochPostingMap: a lock-free-readable multimap for the GDPR secondary
// indexes — attribute value (a user id, a purpose, a sharing partner) ->
// the set of record keys carrying it. Same discipline as EpochMap (single
// writer under an external narrow mutex; readers pin an epoch and walk
// atomic links), one level deeper: each attribute node points at a
// refcounted PostingList that is *stable across attribute-table
// generations*, and each list is itself a small EpochMap-shaped hash set of
// keys.
//
//   * Attribute layer. Growth copies attribute nodes but shares their
//     lists, so a reader mid-walk in a pre-growth generation still observes
//     the list's current key table — a resize never forks a set.
//   * Key layer. A list holds an atomic pointer to a KeyTable: header and
//     buckets in one allocation, chains of {key, next} nodes. Add and Remove
//     hash the key and walk one bucket, so a posting update costs
//     O(kMaxChain), not O(set size). Every set starts at one bucket (a small
//     set is a plain chain, no bigger than one) and doubles copy-on-grow
//     when its average chain exceeds kMaxChain: fresh nodes go into a fresh
//     table, the release store of the list's table pointer publishes it, and
//     the old generation — nodes and table — is retired as one batch, its
//     links intact for readers still walking it.
//
// Posting sets are hint sets, not ground truth. A reader may see a key
// whose record was erased or re-attributed after its walk began, and may
// miss a key added after it; the GDPR layer revalidates every key against
// the record fetched from the engine. What the epoch protocol guarantees is
// memory safety — nothing a pinned reader can reach is freed — plus
// per-mutation atomicity on the writer side.
class EpochPostingMap {
 public:
  struct PostingNode {
    explicit PostingNode(std::string k) : key(std::move(k)) {}
    const std::string key;
    std::atomic<PostingNode*> next{nullptr};
  };
  using Bucket = std::atomic<PostingNode*>;

  // One generation of a key set: the bucket count and the buckets in a
  // single allocation. A loaded cluster holds tens of thousands of
  // few-key per-user sets, where a separate bucket array per set shows in
  // RSS.
  class KeyTable {
   public:
    static KeyTable* New(size_t n) {
      void* mem = ::operator new(sizeof(KeyTable) + n * sizeof(Bucket));
      auto* t = new (mem) KeyTable(n);
      for (size_t i = 0; i < n; ++i) new (&t->buckets()[i]) Bucket(nullptr);
      return t;
    }
    // Frees the table only; its nodes belong to whoever retires them.
    static void Delete(void* p) { ::operator delete(p); }

    size_t size() const { return mask_ + 1; }
    Bucket& bucket(size_t i) const { return buckets()[i]; }
    // Folds the high half in: a cluster node holds only the keys of its own
    // slots, which pins the low bits of their hashes.
    Bucket& at(uint64_t key_hash) const {
      return buckets()[(key_hash ^ (key_hash >> 32)) & mask_];
    }

   private:
    explicit KeyTable(size_t n) : mask_(n - 1) {}
    Bucket* buckets() const {
      return reinterpret_cast<Bucket*>(const_cast<KeyTable*>(this) + 1);
    }
    const size_t mask_;
  };
  static_assert(alignof(KeyTable) >= alignof(Bucket));

  // Shared between attribute-node generations via a writer-side refcount
  // (the EntryBlock pattern). The destructor only ever runs epoch-deferred
  // (last unref from a retired AttrNode's deleter) or at map teardown, so
  // the current table and its nodes are unreachable by then; superseded
  // tables were retired on growth.
  struct PostingList {
    PostingList() : table(KeyTable::New(1)) {}
    ~PostingList() {
      KeyTable* t = table.load(std::memory_order_relaxed);
      for (size_t i = 0; i < t->size(); ++i) {
        PostingNode* n = t->bucket(i).load(std::memory_order_relaxed);
        while (n) {
          PostingNode* next = n->next.load(std::memory_order_relaxed);
          delete n;
          n = next;
        }
      }
      KeyTable::Delete(t);
    }
    std::atomic<KeyTable*> table;
    std::atomic<uint32_t> refs{1};
    size_t size = 0;  // live keys; writers only
  };

  struct AttrNode {
    AttrNode(std::string v, uint64_t h, PostingList* l)
        : value(std::move(v)), hash(h), list(l) {}
    ~AttrNode() { UnrefList(list); }
    const std::string value;
    const uint64_t hash;
    PostingList* const list;
    std::atomic<AttrNode*> next{nullptr};
  };

  // A key set doubles when its average bucket chain exceeds this.
  static constexpr size_t kMaxChain = 8;

  explicit EpochPostingMap(size_t initial_buckets = 16)
      : table_(new Table(RoundUpPow2(initial_buckets))) {}

  ~EpochPostingMap() {
    // Destruction contract: no concurrent readers or writers. Retired
    // generations and unlinked nodes already sit in the epoch manager's
    // lists; only the current generation is freed here.
    DeleteGeneration(table_.load(std::memory_order_relaxed));
  }

  EpochPostingMap(const EpochPostingMap&) = delete;
  EpochPostingMap& operator=(const EpochPostingMap&) = delete;

  // ---- reader side (caller holds an EpochGuard) ---------------------------

  // Lock-free walk of one attribute's key set; fn returns false to stop
  // early. The snapshot guarantee is per-link: concurrent adds and removes
  // may or may not be seen.
  template <typename Fn>  // Fn: bool(const std::string& key)
  void ForEachKey(const std::string& value, Fn fn) const {
    const uint64_t h = Fnv1a(value);
    const Table* t = table_.load(std::memory_order_acquire);
    for (const AttrNode* n =
             t->buckets[h & t->mask].load(std::memory_order_acquire);
         n != nullptr; n = n->next.load(std::memory_order_acquire)) {
      if (n->hash != h || n->value != value) continue;
      const KeyTable* kt = n->list->table.load(std::memory_order_acquire);
      for (size_t i = 0; i < kt->size(); ++i) {
        for (const PostingNode* p =
                 kt->bucket(i).load(std::memory_order_acquire);
             p != nullptr; p = p->next.load(std::memory_order_acquire)) {
          if (!fn(p->key)) return;
        }
      }
      return;
    }
  }

  // ---- writer side (caller holds its index writer mutex) ------------------

  // Adds (value, key). Returns true when newly added; postings are sets,
  // a duplicate pair is a no-op.
  bool Add(const std::string& value, const std::string& key) {
    const uint64_t h = Fnv1a(value);
    Table* t = table_.load(std::memory_order_relaxed);
    auto& bucket = t->buckets[h & t->mask];
    AttrNode* attr = FindAttr(bucket, value, h);
    if (attr == nullptr) {
      attr = new AttrNode(value, h, new PostingList());
      attr->next.store(bucket.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
      bucket.store(attr, std::memory_order_release);  // publish
      values_.fetch_add(1, std::memory_order_relaxed);
    }
    // Even if Grow() retires `attr`'s generation one day, mutating through
    // it stays correct: the PostingList is shared, not copied.
    PostingList* list = attr->list;
    KeyTable* kt = list->table.load(std::memory_order_relaxed);
    Bucket& slot = kt->at(Fnv1a(key));
    for (PostingNode* p = slot.load(std::memory_order_relaxed); p != nullptr;
         p = p->next.load(std::memory_order_relaxed)) {
      if (p->key == key) return false;
    }
    auto* node = new PostingNode(key);
    node->next.store(slot.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    slot.store(node, std::memory_order_release);  // publish
    entries_.fetch_add(1, std::memory_order_relaxed);
    if (++list->size > kMaxChain * kt->size()) GrowList(list);
    if (values_.load(std::memory_order_relaxed) > t->buckets.size()) Grow();
    return true;
  }

  // Unlinks + retires one (value, key) posting; an emptied attribute node
  // is unlinked too (its epoch-deferred deleter unrefs the shared list).
  // Returns true when the pair existed.
  bool Remove(const std::string& value, const std::string& key) {
    const uint64_t h = Fnv1a(value);
    Table* t = table_.load(std::memory_order_relaxed);
    auto& bucket = t->buckets[h & t->mask];
    AttrNode* attr_prev = nullptr;
    AttrNode* attr = bucket.load(std::memory_order_relaxed);
    for (; attr != nullptr;
         attr_prev = attr, attr = attr->next.load(std::memory_order_relaxed)) {
      if (attr->hash == h && attr->value == value) break;
    }
    if (attr == nullptr) return false;
    PostingList* list = attr->list;
    Bucket& slot = list->table.load(std::memory_order_relaxed)->at(Fnv1a(key));
    PostingNode* prev = nullptr;
    for (PostingNode* p = slot.load(std::memory_order_relaxed); p != nullptr;
         prev = p, p = p->next.load(std::memory_order_relaxed)) {
      if (p->key != key) continue;
      PostingNode* after = p->next.load(std::memory_order_relaxed);
      // Unlink without touching p->next: a reader standing on p keeps a
      // valid view of the rest of the chain.
      if (prev == nullptr) {
        slot.store(after, std::memory_order_release);
      } else {
        prev->next.store(after, std::memory_order_release);
      }
      EpochManager::Global().Retire(p);
      entries_.fetch_sub(1, std::memory_order_relaxed);
      retired_.fetch_add(1, std::memory_order_relaxed);
      if (--list->size == 0) {
        // Empty set: drop the attribute node (readers standing on it see
        // an empty set; a re-add builds a fresh node + list).
        AttrNode* attr_after = attr->next.load(std::memory_order_relaxed);
        if (attr_prev == nullptr) {
          bucket.store(attr_after, std::memory_order_release);
        } else {
          attr_prev->next.store(attr_after, std::memory_order_release);
        }
        EpochManager::Global().Retire(attr);
        values_.fetch_sub(1, std::memory_order_relaxed);
        retired_.fetch_add(1, std::memory_order_relaxed);
      }
      return true;
    }
    return false;
  }

  // Drops everything: publishes a fresh empty table, retires the old
  // generation wholesale (readers may be mid-walk in it).
  void Clear() {
    Table* old = table_.load(std::memory_order_relaxed);
    table_.store(new Table(16), std::memory_order_release);
    RetireGeneration(old);
    entries_.store(0, std::memory_order_relaxed);
    values_.store(0, std::memory_order_relaxed);
  }

  // ---- introspection (safe from any thread; gauge feeds) ------------------

  // Live (value, key) postings across all attributes.
  size_t entries() const { return entries_.load(std::memory_order_relaxed); }
  // Distinct attribute values with a non-empty key set.
  size_t values() const { return values_.load(std::memory_order_relaxed); }
  // Cumulative objects handed to the epoch reclaimer (postings, attribute
  // nodes, superseded key tables and attribute generations with their
  // nodes) — the retire pressure this index generates.
  uint64_t retired_nodes() const {
    return retired_.load(std::memory_order_relaxed);
  }

 private:
  struct Table {
    explicit Table(size_t n) : buckets(n), mask(n - 1) {}
    std::vector<std::atomic<AttrNode*>> buckets;
    const uint64_t mask;
  };

  static void UnrefList(PostingList* l) {
    if (l->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete l;
  }

  static size_t RoundUpPow2(size_t n) {
    size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  static AttrNode* FindAttr(std::atomic<AttrNode*>& bucket,
                            const std::string& value, uint64_t h) {
    for (AttrNode* n = bucket.load(std::memory_order_relaxed); n != nullptr;
         n = n->next.load(std::memory_order_relaxed)) {
      if (n->hash == h && n->value == value) return n;
    }
    return nullptr;
  }

  // Doubles one key set: copies its nodes into a fresh table (rehashing
  // each key), publishes it, and retires the old table with its nodes as
  // one batch.
  void GrowList(PostingList* list) {
    KeyTable* old = list->table.load(std::memory_order_relaxed);
    KeyTable* grown = KeyTable::New(old->size() * 2);
    std::vector<std::pair<void*, void (*)(void*)>> batch;
    batch.reserve(list->size + 1);
    for (size_t i = 0; i < old->size(); ++i) {
      for (PostingNode* n = old->bucket(i).load(std::memory_order_relaxed);
           n != nullptr; n = n->next.load(std::memory_order_relaxed)) {
        auto* copy = new PostingNode(n->key);
        Bucket& slot = grown->at(Fnv1a(n->key));
        copy->next.store(slot.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
        slot.store(copy, std::memory_order_relaxed);
        batch.emplace_back(
            n, [](void* q) { delete static_cast<PostingNode*>(q); });
      }
    }
    batch.emplace_back(old, KeyTable::Delete);
    list->table.store(grown, std::memory_order_release);  // publish
    retired_.fetch_add(batch.size(), std::memory_order_relaxed);
    EpochManager::Global().RetireBatch(std::move(batch));
  }

  // Doubles the attribute table. Fresh attribute nodes share the
  // PostingLists via a ref bump — the one structural difference from
  // EpochMap's growth, and what lets writers keep mutating sets reachable
  // from both generations.
  void Grow() {
    Table* old = table_.load(std::memory_order_relaxed);
    auto* grown = new Table(old->buckets.size() * 2);
    for (auto& bucket : old->buckets) {
      for (AttrNode* n = bucket.load(std::memory_order_relaxed); n != nullptr;
           n = n->next.load(std::memory_order_relaxed)) {
        n->list->refs.fetch_add(1, std::memory_order_relaxed);
        auto* copy = new AttrNode(n->value, n->hash, n->list);
        auto& slot = grown->buckets[n->hash & grown->mask];
        copy->next.store(slot.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
        slot.store(copy, std::memory_order_relaxed);
      }
    }
    table_.store(grown, std::memory_order_release);  // publish
    RetireGeneration(old);
  }

  void RetireGeneration(Table* t) {
    // One batch, one retire-mutex acquisition (see EpochMap). Attribute
    // deleters unref the shared lists; the last unref frees a list and its
    // current key table.
    std::vector<std::pair<void*, void (*)(void*)>> batch;
    batch.reserve(t->buckets.size() + 1);
    for (auto& bucket : t->buckets) {
      for (AttrNode* n = bucket.load(std::memory_order_relaxed);
           n != nullptr;) {
        AttrNode* next = n->next.load(std::memory_order_relaxed);
        batch.emplace_back(n,
                           [](void* q) { delete static_cast<AttrNode*>(q); });
        n = next;
      }
    }
    batch.emplace_back(t, [](void* q) { delete static_cast<Table*>(q); });
    retired_.fetch_add(batch.size(), std::memory_order_relaxed);
    EpochManager::Global().RetireBatch(std::move(batch));
  }

  static void DeleteGeneration(Table* t) {
    for (auto& b : t->buckets) {
      AttrNode* n = b.load(std::memory_order_relaxed);
      while (n) {
        AttrNode* next = n->next.load(std::memory_order_relaxed);
        delete n;
        n = next;
      }
    }
    delete t;
  }

  std::atomic<Table*> table_;
  std::atomic<size_t> entries_{0};
  std::atomic<size_t> values_{0};
  std::atomic<uint64_t> retired_{0};
};

}  // namespace gdpr::kv
