// The role/purpose access-control matrix (G 25/28/29). The policy layer
// (gdpr/policy_store.h) is its only caller, so the policy cannot drift
// between engines.
//
//   controller — full access (it runs the store).
//   customer   — acts only on records and subjects it owns; no
//                regulator-style or maintenance ops.
//   processor  — read-only, and only under a granted, unobjected purpose.
//   regulator  — metadata, logs, verification; never raw personal data.

#pragma once

#include <string>
#include <string_view>

#include "common/status.h"
#include "gdpr/actor.h"
#include "gdpr/compliance.h"
#include "gdpr/ops.h"
#include "gdpr/record.h"

namespace gdpr {

// record: the record the op acts on (CREATE passes the new one), if any.
// target: the subject a by-user op names or the purpose a by-purpose op
// names; nullptr for ops that name neither.
inline Status CheckGdprAccess(const ComplianceFlags& flags, const Actor& actor,
                              std::string_view op, const GdprRecord* record,
                              const std::string* target = nullptr) {
  if (!flags.enforce_access_control) return Status::OK();
  switch (actor.role) {
    case Actor::Role::kController:
      return Status::OK();
    case Actor::Role::kCustomer:
      if (record && record->metadata.user != actor.id) {
        return Status::PermissionDenied("record belongs to another subject");
      }
      // Cross-subject queries (by purpose/sharing, log pulls, full scans)
      // would disclose other subjects' metadata; compaction is maintenance.
      if (op == ops::kVerifyDeletion || op == ops::kGetLogs ||
          op == ops::kScanRecords || op == ops::kReadMetaPurpose ||
          op == ops::kReadMetaSharing || op == ops::kCompact) {
        return Status::PermissionDenied("customer cannot run " +
                                        std::string(op));
      }
      if (target && *target != actor.id) {
        return Status::PermissionDenied("customer can only act on own records");
      }
      return Status::OK();
    case Actor::Role::kProcessor:
      if (op != ops::kReadData && op != ops::kReadMeta &&
          op != ops::kReadMetaPurpose) {
        return Status::PermissionDenied("processor cannot run " +
                                        std::string(op));
      }
      if (target && *target != actor.purpose) {
        return Status::PermissionDenied("processor purpose mismatch");
      }
      if (record) {
        if (!record->metadata.HasPurpose(actor.purpose)) {
          return Status::PermissionDenied("purpose not granted: " +
                                          actor.purpose);
        }
        if (record->metadata.HasObjection(actor.purpose)) {
          return Status::PermissionDenied("subject objected to purpose: " +
                                          actor.purpose);
        }
      }
      return Status::OK();
    case Actor::Role::kRegulator:
      // Full records (data included) go to the controller or the subject.
      if (op == ops::kReadData || op == ops::kReadRecordsUser ||
          op == ops::kCreate || op == ops::kUpdateMeta ||
          op == ops::kUpdateData || op == ops::kDeleteKey ||
          op == ops::kDeleteUser || op == ops::kDeleteExpired ||
          op == ops::kCompact) {
        return Status::PermissionDenied("regulator cannot run " +
                                        std::string(op));
      }
      return Status::OK();
  }
  return Status::PermissionDenied("unknown role");
}

}  // namespace gdpr
