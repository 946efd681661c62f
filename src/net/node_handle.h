// NodeHandle: one cluster node as the router sees it — the GdprStore
// vocabulary plus what only a node adds: slot migration and audit-chain
// evidence. The router (src/cluster/cluster_store.cc) routes, fans out,
// migrates slots, verifies audit chains, and merges metrics exclusively
// through this interface. Two implementations: a KvGdprStore is itself the
// in-process node (direct calls), and RemoteHandle (src/net/rpc_client.h)
// reaches a node's RpcServer over a socket.
//
// Surface notes:
//   * The five collection reads (the Table 2 queries, the export and the
//     scan) are one op, ReadCollection. A node's server answers it with
//     ReadCollectionImages: the delivered records' images (gdpr/record.h),
//     appended as the wire's record list carries them, so the node builds
//     no record. The handle decodes them once and replays them into the
//     caller's sink; the op status (a DataLoss verdict included) rides
//     alongside.
//   * Migration speaks whole slots: one export, one import, one eviction
//     per slot and node. Exports are slot-scoped (slot, num_slots) instead
//     of predicate-scoped: a predicate cannot cross the wire, and both
//     sides computing membership with SlotForKey (common/hash.h) — the
//     exact function the router routes by — means they can never disagree
//     about a slot's keys.
//   * VerifyAuditChain returns verdict + head hash so transport-equivalence
//     tests can compare evidence across handle types byte-for-byte.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gdpr/store.h"

namespace gdpr::net {

struct AuditChainVerdict {
  bool chain_ok = false;
  std::string head_hash;
};

// What a slot holds on one node: its records (expired included) and the
// erasure tombstones that keep VerifyDeletion truthful once it moves.
struct SlotContents {
  std::vector<GdprRecord> records;
  std::vector<std::string> tombstones;
};

// A collection answer as the wire carries it: count records, each image
// length-prefixed, back to back in bytes (the record list's body after its
// count).
struct RecordImages {
  uint64_t count = 0;
  std::string bytes;
};

class NodeHandle : public virtual GdprStore {
 public:
  // ReadCollection, with each delivered record appended to *images instead
  // of handed to a sink; masked records carry an empty data field. Same
  // checks, audit and status.
  virtual Status ReadCollectionImages(const Actor& actor, CollectionKind kind,
                                      const std::string& value,
                                      RecordImages* images) = 0;

  // Slot migration (router-driven; not GDPR-audited node-side: a rebalance
  // is infrastructure, audited once on the router's chain).

  // Everything the node holds in slot of num_slots. DataLoss when any
  // record failed at-rest decryption: a slot migration built on a partial
  // export would silently drop records.
  virtual StatusOr<SlotContents> ExportSlot(uint32_t slot,
                                            uint32_t num_slots) = 0;
  // Upserts each record (blob + secondary indexes, clearing any stale
  // tombstone for its key), then adopts each tombstone, first evicting any
  // record still resident under that key: a copy left behind by an earlier
  // failed move must not outlive the evidence of its erasure. Stops at the
  // first failure and returns it, with no undo: after an I/O failure the
  // node's log is poisoned and an undo could not be logged either.
  virtual Status ImportSlot(const SlotContents& contents) = 0;
  // Removes the listed records — indexes dropped, no tombstone (the records
  // still exist, just elsewhere). An absent key is already evicted. Tries
  // every key and returns the first failure.
  virtual Status EvictRecords(const std::vector<std::string>& keys) = 0;

  // Audit evidence: the node's chain verdict and head hash.
  virtual StatusOr<AuditChainVerdict> VerifyAuditChain() = 0;
};

}  // namespace gdpr::net
