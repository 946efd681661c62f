// EpochTable: the one lock-free-readable chained hash table behind MemKV's
// shard map (EpochMap) and the GDPR secondary indexes (EpochPostingMap's
// attribute table and each attribute's key set). The three differ only in
// their node type; every chain walk, publish, unlink, grow, generation
// retire and teardown below is written once.
//
// Shape: bucket heads and chain links are atomics. Writers still serialize
// per table (the caller holds the shard's or the index's writer lock for
// every mutation), which keeps the write side a plain single-writer
// program; readers hold no lock at all — they pin an epoch (see
// common/epoch.h), acquire-load the generation pointer, walk one chain, and
// copy what they need out of immutable data.
//
// Invariants that make the reader walk safe:
//   * A node's key and hash never change after publication; anything else
//     a reader loads from it (an EntryBlock, a PostingList) is immutable or
//     swings between fully-constructed objects.
//   * Unlinking a node never touches the node's own `next`, so a reader
//     standing on an unlinked node still sees the rest of its chain.
//   * Growth clones nodes into a fresh generation (a clone shares the
//     node's EntryBlock or PostingList via a writer-side refcount) and
//     retires the old generation wholesale — chain links of the generation
//     a reader is walking are never rewired.
//   * Nothing a reader can reach is ever freed directly: displaced blocks,
//     unlinked nodes, and superseded generations all go through the epoch
//     manager's retire lists.
//
// Bucket rule: (h ^ (h >> 32)) & mask. MemKV picks a key's shard, and a
// cluster picks its slot, from the low bits of the same FNV-1a hash, so
// every key one shard map or one node's index holds shares those bits;
// folding the high half in spreads them over every bucket.

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

// The one prefetch helper: a read hint for the cache lines of [p, p + bytes).
// A hint never faults, so a stale or null address costs nothing but the
// miss it failed to hide.
inline void Prefetch(const void* p, size_t bytes = 1) {
  if (p == nullptr) return;
  const char* c = static_cast<const char*>(p);
  for (size_t off = 0; off < bytes; off += 64) __builtin_prefetch(c + off);
}

// The table over one node type. A Node provides:
//   std::atomic<Node*> next;
//   static constexpr size_t kMinBuckets;  // first generation's size
//   static constexpr size_t kMaxChain;    // doubles past this average chain
//   bool Is(const std::string& key, uint64_t hash) const;
//   uint64_t Hash() const;                // the hash it was published under
//   Node* Clone() const;                  // growth copy; bumps shared refs
template <typename Node>
class EpochTable {
 public:
  static_assert((Node::kMinBuckets & (Node::kMinBuckets - 1)) == 0,
                "bucket counts are powers of two");

  EpochTable() : gen_(Gen::New(Node::kMinBuckets)) {}

  // Teardown of the current generation. Destruction contract: no pinned
  // reader can reach this table any more. Retired generations already sit
  // in the epoch manager's lists and are freed by it.
  ~EpochTable() { DeleteGeneration(gen_.load(std::memory_order_relaxed)); }

  EpochTable(const EpochTable&) = delete;
  EpochTable& operator=(const EpochTable&) = delete;

  // The node published under (key, hash), or null. Readers call it under an
  // EpochGuard; writers call it under their lock (an acquire load costs a
  // writer nothing on x86).
  Node* Find(const std::string& key, uint64_t hash) const {
    Node* found = nullptr;
    WalkChain(gen_.load(std::memory_order_acquire)->at(hash), [&](Node* n) {
      if (n->Is(key, hash)) found = n;
      return found == nullptr;
    });
    return found;
  }

  // The first two stages of a batched lookup, under the reader's EpochGuard:
  // the bucket slot of hash, then (a stage later, once the slot is cached)
  // the head node it links. Pure hints — Find stays the lookup, so a table
  // that grew in between only costs the misses the hints meant to hide.
  void PrefetchBucket(uint64_t hash) const {
    Prefetch(&gen_.load(std::memory_order_acquire)->at(hash));
  }
  void PrefetchHead(uint64_t hash) const {
    Prefetch(gen_.load(std::memory_order_acquire)
                 ->at(hash)
                 .load(std::memory_order_acquire));
  }

  // Walks one consistent generation; fn(Node&) returns false to stop.
  // Returns false when fn stopped the walk. Nodes mutated concurrently may
  // or may not be seen, as in a snapshot-isolation scan.
  template <typename Fn>
  bool ForEach(Fn fn) const {
    return Walk(gen_.load(std::memory_order_acquire),
                [&](Node* n) { return fn(*n); });
  }

  // ---- writer side (caller holds the table's writer lock) -----------------

  // Publishes n at the head of its bucket; the caller has checked the key
  // is absent. A table whose average chain passes Node::kMaxChain doubles
  // here, so n itself may already be retired on return. Returns the objects
  // that growth retired (0 when it did not grow).
  size_t Publish(Node* n, uint64_t hash) {
    const Gen* g = gen_.load(std::memory_order_relaxed);
    LinkAtHead(g->at(hash), n);
    const size_t count = size_.load(std::memory_order_relaxed) + 1;
    size_.store(count, std::memory_order_relaxed);  // single writer
    return count > Node::kMaxChain * g->size() ? Grow() : 0;
  }

  // Unlinks the node published under (key, hash) without touching its own
  // `next`, so a reader standing on it still sees the rest of its chain.
  // Returns it for the caller to retire, or null when absent.
  Node* Unlink(const std::string& key, uint64_t hash) {
    Link* link = &gen_.load(std::memory_order_relaxed)->at(hash);
    Node* found = nullptr;
    WalkChain(*link, [&](Node* n) {
      if (n->Is(key, hash)) {
        found = n;
        return false;
      }
      link = &n->next;
      return true;
    });
    if (found == nullptr) return nullptr;
    link->store(found->next.load(std::memory_order_relaxed),
                std::memory_order_release);
    size_.store(size_.load(std::memory_order_relaxed) - 1,
                std::memory_order_relaxed);
    return found;
  }

  // Live nodes. Written by the writer only; safe to read from any thread.
  size_t size() const { return size_.load(std::memory_order_relaxed); }

  // Writer-side: the longest bucket chain of the current generation.
  size_t longest_chain() const {
    const Gen* g = gen_.load(std::memory_order_relaxed);
    size_t longest = 0;
    for (size_t i = 0; i < g->size(); ++i) {
      size_t len = 0;
      WalkChain(g->bucket(i), [&](Node*) {
        ++len;
        return true;
      });
      if (len > longest) longest = len;
    }
    return longest;
  }

 private:
  using Link = std::atomic<Node*>;

  // One generation: the bucket count and the buckets in a single
  // allocation. A loaded cluster holds tens of thousands of few-key
  // per-user sets, where a separate bucket array per set shows in RSS.
  class Gen {
   public:
    static Gen* New(size_t n) {
      void* mem = ::operator new(sizeof(Gen) + n * sizeof(Link));
      auto* g = new (mem) Gen(n);
      for (size_t i = 0; i < n; ++i) new (&g->bucket(i)) Link(nullptr);
      return g;
    }
    // Frees the generation only; its nodes belong to whoever retires them.
    static void Delete(void* p) { ::operator delete(p); }

    size_t size() const { return mask_ + 1; }
    Link& bucket(size_t i) const { return buckets()[i]; }
    Link& at(uint64_t h) const { return buckets()[(h ^ (h >> 32)) & mask_]; }

   private:
    explicit Gen(size_t n) : mask_(n - 1) {}
    Link* buckets() const {
      return reinterpret_cast<Link*>(const_cast<Gen*>(this) + 1);
    }
    const size_t mask_;
  };
  static_assert(alignof(Gen) >= alignof(Link));

  // The one chain walk. `next` is loaded before fn sees a node, so fn may
  // free it (teardown). fn returns false to stop; so does WalkChain.
  template <typename Fn>
  static bool WalkChain(const Link& head, Fn&& fn) {
    for (Node* n = head.load(std::memory_order_acquire); n != nullptr;) {
      Node* next = n->next.load(std::memory_order_acquire);
      if (!fn(n)) return false;
      n = next;
    }
    return true;
  }

  // The one publish: n's link is set before the release store of the head
  // makes n reachable.
  static void LinkAtHead(Link& head, Node* n) {
    n->next.store(head.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    head.store(n, std::memory_order_release);
  }

  template <typename Fn>
  static bool Walk(const Gen* g, Fn&& fn) {
    for (size_t i = 0; i < g->size(); ++i) {
      if (!WalkChain(g->bucket(i), fn)) return false;
    }
    return true;
  }

  // Doubles the table: clones go into a fresh generation, one release
  // store publishes it, and the old generation — whose chains stay intact
  // for in-flight readers — is retired as one batch.
  size_t Grow() {
    Gen* old = gen_.load(std::memory_order_relaxed);
    Gen* grown = Gen::New(old->size() * 2);
    Walk(old, [&](Node* n) {
      Node* copy = n->Clone();
      LinkAtHead(grown->at(copy->Hash()), copy);
      return true;
    });
    gen_.store(grown, std::memory_order_release);  // publish
    return RetireGeneration(old);
  }

  // One batch, one retire-mutex acquisition: this runs under a writer lock,
  // and per-node round-trips through the global mutex would stall every
  // other writer for the duration of a growth.
  static size_t RetireGeneration(Gen* g) {
    std::vector<std::pair<void*, void (*)(void*)>> batch;
    batch.reserve(g->size() + 1);
    Walk(g, [&](Node* n) {
      batch.emplace_back(n, [](void* q) { delete static_cast<Node*>(q); });
      return true;
    });
    batch.emplace_back(g, Gen::Delete);
    const size_t retired = batch.size();
    EpochManager::Global().RetireBatch(std::move(batch));
    return retired;
  }

  static void DeleteGeneration(Gen* g) {
    Walk(g, [](Node* n) {
      delete n;
      return true;
    });
    Gen::Delete(g);
  }

  std::atomic<Gen*> gen_;
  std::atomic<size_t> size_{0};
};

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

// EpochMap: the shard map behind MemKV. A point read pins an epoch, finds
// the key's node and copies the value out of its immutable EntryBlock; an
// overwrite swaps in a fresh block and retires the displaced one.
class EpochMap {
 public:
  struct Node {
    static constexpr size_t kMinBuckets = 8;
    static constexpr size_t kMaxChain = 1;
    Node(std::string k, uint64_t h, EntryBlock* b)
        : key(std::move(k)), hash(h), block(b) {}
    ~Node() { UnrefEntryBlock(block.load(std::memory_order_relaxed)); }
    bool Is(const std::string& k, uint64_t h) const {
      return hash == h && key == k;
    }
    uint64_t Hash() const { return hash; }
    Node* Clone() const {
      EntryBlock* b = block.load(std::memory_order_relaxed);
      b->refs.fetch_add(1, std::memory_order_relaxed);
      return new Node(key, hash, b);
    }
    const std::string key;
    const uint64_t hash;
    std::atomic<EntryBlock*> block;
    std::atomic<Node*> next{nullptr};
  };

  // Point lookup for readers (under an EpochGuard) and writers alike. The
  // returned block stays valid until the caller's EpochGuard dies, or
  // while the caller holds the shard writer lock; copy what you need.
  const EntryBlock* Find(const std::string& key, uint64_t hash) const {
    const Node* n = table_.Find(key, hash);
    return n ? n->block.load(std::memory_order_acquire) : nullptr;
  }

  // Batched-lookup stages ahead of Find (see EpochTable).
  void PrefetchBucket(uint64_t hash) const { table_.PrefetchBucket(hash); }
  void PrefetchHead(uint64_t hash) const { table_.PrefetchHead(hash); }

  // Traversal of one consistent generation; fn returns false to stop.
  // Readers hold an EpochGuard for the whole walk; snapshot paths hold the
  // shard lock shared to exclude writers.
  template <typename Fn>  // Fn: bool(const std::string& key, const EntryBlock&)
  bool ForEach(Fn fn) const {
    return table_.ForEach([&](const Node& n) {
      return fn(n.key, *n.block.load(std::memory_order_acquire));
    });
  }

  // ---- writer side (caller holds the shard's writer lock) -----------------

  // Insert-or-overwrite. Returns true when the key was newly inserted;
  // on overwrite, *old_expiry/*old_value_size describe the displaced block
  // (which is retired, never freed inline).
  bool Upsert(const std::string& key, uint64_t hash, std::string stored,
              int64_t expiry_micros, int64_t* old_expiry,
              size_t* old_value_size) {
    auto* fresh = new EntryBlock(std::move(stored), expiry_micros);
    if (Node* n = table_.Find(key, hash)) {
      EntryBlock* old = n->block.exchange(fresh, std::memory_order_acq_rel);
      if (old_expiry) *old_expiry = old->expiry_micros;
      if (old_value_size) *old_value_size = old->value.size();
      // The node kept its only structural reference; hand it to the
      // reclaimer (readers may still hold the old block).
      EpochManager::Global().RetireRaw(old, UnrefEntryBlock);
      return false;
    }
    table_.Publish(new Node(key, hash, fresh), hash);
    return true;
  }

  // Unlink + retire. Returns true when the key existed; *old_value_size
  // receives the displaced value's size for byte accounting.
  bool Erase(const std::string& key, uint64_t hash, size_t* old_value_size) {
    Node* n = table_.Unlink(key, hash);
    if (n == nullptr) return false;
    if (old_value_size) {
      *old_value_size = n->block.load(std::memory_order_relaxed)->value.size();
    }
    EpochManager::Global().Retire(n);  // ~Node unrefs the block
    return true;
  }

  size_t size() const { return table_.size(); }
  size_t longest_chain() const { return table_.longest_chain(); }

 private:
  EpochTable<Node> table_;
};

// EpochPostingMap: a lock-free-readable multimap for the GDPR secondary
// indexes — attribute value (a user id, a purpose, a sharing partner) ->
// the set of record keys carrying it. Two levels of EpochTable under one
// external writer mutex: the attribute table's nodes each point at a
// refcounted PostingList, whose own table is the set of keys.
//
//   * Attribute layer. Growth clones attribute nodes but shares their
//     lists, so a reader mid-walk in a pre-growth generation still observes
//     the list's current key table — a resize never forks a set.
//   * Key layer. Chains of {key, next} nodes: Add and Remove hash the key
//     and walk one bucket, so a posting update costs O(kMaxChain), not
//     O(set size). Every set starts at one bucket (a small set is a plain
//     chain, no bigger than one) and doubles copy-on-grow when its average
//     chain exceeds kMaxChain.
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
    static constexpr size_t kMinBuckets = 1;
    static constexpr size_t kMaxChain = 8;
    explicit PostingNode(std::string k) : key(std::move(k)) {}
    bool Is(const std::string& k, uint64_t) const { return key == k; }
    uint64_t Hash() const { return Fnv1a(key); }
    PostingNode* Clone() const { return new PostingNode(key); }
    const std::string key;
    std::atomic<PostingNode*> next{nullptr};
  };

  // Shared between attribute-node generations via a writer-side refcount
  // (the EntryBlock pattern). The destructor only ever runs epoch-deferred
  // (last unref from a retired AttrNode's deleter) or at map teardown, so
  // the current key generation is unreachable by then; superseded ones
  // were retired on growth.
  struct PostingList {
    EpochTable<PostingNode> keys;
    std::atomic<uint32_t> refs{1};
  };

  struct AttrNode {
    static constexpr size_t kMinBuckets = 16;
    static constexpr size_t kMaxChain = 1;
    AttrNode(std::string v, uint64_t h, PostingList* l)
        : key(std::move(v)), hash(h), list(l) {}
    ~AttrNode() {
      if (list->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete list;
    }
    bool Is(const std::string& v, uint64_t h) const {
      return hash == h && key == v;
    }
    uint64_t Hash() const { return hash; }
    AttrNode* Clone() const {
      list->refs.fetch_add(1, std::memory_order_relaxed);
      return new AttrNode(key, hash, list);
    }
    const std::string key;  // the attribute value
    const uint64_t hash;
    PostingList* const list;
    std::atomic<AttrNode*> next{nullptr};
  };

  // ---- reader side (caller holds an EpochGuard) ---------------------------

  // Lock-free walk of one attribute's key set; fn returns false to stop
  // early. The snapshot guarantee is per-link: concurrent adds and removes
  // may or may not be seen.
  template <typename Fn>  // Fn: bool(const std::string& key)
  void ForEachKey(const std::string& value, Fn fn) const {
    const AttrNode* attr = attrs_.Find(value, Fnv1a(value));
    if (attr == nullptr) return;
    attr->list->keys.ForEach([&](const PostingNode& p) { return fn(p.key); });
  }

  // ---- writer side (caller holds its index writer mutex) ------------------

  // Adds (value, key). Returns true when newly added; postings are sets,
  // a duplicate pair is a no-op.
  bool Add(const std::string& value, const std::string& key) {
    const uint64_t h = Fnv1a(value);
    const AttrNode* attr = attrs_.Find(value, h);
    const uint64_t kh = Fnv1a(key);
    PostingList* list;
    if (attr != nullptr) {
      list = attr->list;
      if (list->keys.Find(key, kh) != nullptr) return false;
    } else {
      // Publishing may grow the attribute table and retire the new node at
      // once; only the list, which its clone shares, is used past here.
      list = new PostingList();
      retired_.fetch_add(attrs_.Publish(new AttrNode(value, h, list), h),
                         std::memory_order_relaxed);
    }
    retired_.fetch_add(list->keys.Publish(new PostingNode(key), kh),
                       std::memory_order_relaxed);
    entries_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  // Unlinks + retires one (value, key) posting; an emptied attribute node
  // is unlinked too (its epoch-deferred deleter unrefs the shared list).
  // Returns true when the pair existed.
  bool Remove(const std::string& value, const std::string& key) {
    const uint64_t h = Fnv1a(value);
    const AttrNode* attr = attrs_.Find(value, h);
    if (attr == nullptr) return false;
    PostingNode* p = attr->list->keys.Unlink(key, Fnv1a(key));
    if (p == nullptr) return false;
    EpochManager::Global().Retire(p);
    entries_.fetch_sub(1, std::memory_order_relaxed);
    retired_.fetch_add(1, std::memory_order_relaxed);
    if (attr->list->keys.size() == 0) {
      // Empty set: drop the attribute node (readers standing on it see an
      // empty set; a re-add builds a fresh node + list).
      EpochManager::Global().Retire(attrs_.Unlink(value, h));
      retired_.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  }

  // ---- introspection (safe from any thread; gauge feeds) ------------------

  // Live (value, key) postings across all attributes.
  size_t entries() const { return entries_.load(std::memory_order_relaxed); }
  // Distinct attribute values with a non-empty key set.
  size_t values() const { return attrs_.size(); }
  // Cumulative objects handed to the epoch reclaimer (postings, attribute
  // nodes, superseded key tables and attribute generations with their
  // nodes) — the retire pressure this index generates.
  uint64_t retired_nodes() const {
    return retired_.load(std::memory_order_relaxed);
  }

 private:
  EpochTable<AttrNode> attrs_;
  std::atomic<size_t> entries_{0};
  std::atomic<uint64_t> retired_{0};
};

}  // namespace gdpr::kv
