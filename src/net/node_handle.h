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
//     scan) are one op, ReadCollection, with one answer: the records,
//     appended to the caller's vector. A node's server answers it with the
//     records' stored images (PolicyStore::AppendImages), so the node
//     builds no record; the socket handle decodes them once and hands the
//     decoded vector up. The op status (a DataLoss verdict included) rides
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

class NodeHandle : public virtual GdprStore {
 public:
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
