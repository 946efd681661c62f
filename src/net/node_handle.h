// NodeHandle: one cluster node as the router sees it — the GdprStore
// vocabulary plus what only a node adds: slot migration and audit-chain
// evidence. The router (src/cluster/cluster_store.cc) routes, fans out,
// migrates slots, verifies audit chains, and merges metrics exclusively
// through this interface. Two implementations: a KvGdprStore is itself the
// in-process node (direct calls), and RemoteHandle (src/net/rpc_client.h)
// reaches a node's RpcServer over a socket.
//
// Surface notes:
//   * ScanRecords keeps the callback signature, but a remote node ships the
//     full readable record set in one response and the handle replays the
//     callback locally — op status (including DataLoss partial-scan
//     verdicts) rides alongside the records.
//   * Migration exports are slot-scoped (slot, num_slots) instead of
//     predicate-scoped: a predicate cannot cross the wire, and both sides
//     computing membership with SlotForKey (common/hash.h) — the exact
//     function the router routes by — means they can never disagree about
//     a slot's keys.
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

class NodeHandle : public virtual GdprStore {
 public:
  // Slot migration (router-driven; not GDPR-audited node-side: a rebalance
  // is infrastructure, audited once on the router's chain).

  // Records (expired included) whose key hashes into slot of num_slots.
  // DataLoss when any record failed at-rest decryption: a slot migration
  // built on a partial export would silently drop records.
  virtual StatusOr<std::vector<GdprRecord>> ExportSlotRecords(
      uint32_t slot, uint32_t num_slots) = 0;
  // Erasure tombstones in the slot, so VerifyDeletion stays truthful after
  // the slot moves.
  virtual StatusOr<std::vector<std::string>> ExportSlotTombstones(
      uint32_t slot, uint32_t num_slots) = 0;
  // Adopts a record copied in from a departing node: blob + secondary
  // indexes, clearing any stale tombstone for the key.
  virtual Status ImportRecord(const GdprRecord& record) = 0;
  // Adopts erasure evidence for a key this node now owns. Fails when the
  // evidence cannot be persisted.
  virtual Status AdoptTombstone(const std::string& key) = 0;
  // Removes a record that was copied out — indexes dropped, no tombstone
  // (the record still exists, just elsewhere).
  virtual Status EvictRecord(const std::string& key) = 0;
  // Drops a stale tombstone (rollback of a failed slot-copy adoption).
  virtual Status ClearTombstone(const std::string& key) = 0;

  // Audit evidence: the node's chain verdict and head hash.
  virtual StatusOr<AuditChainVerdict> VerifyAuditChain() = 0;
};

}  // namespace gdpr::net
