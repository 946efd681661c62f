// FNV-1a, the one string hash the engine stripes and partitions by: MemKV
// shards, posting-map buckets, the policy layer's key locks, and cluster
// slots. The slot hash is persistent in effect — a restarted node replays
// its AOF into the slots its keys hash to — so these values must never
// change.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace gdpr {

inline uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= uint8_t(c);
    h *= 1099511628211ull;
  }
  return h;
}

// The slot a key belongs to among num_slots, shared by the router's SlotMap
// and a node's slot-scoped exports: both sides compute membership with this
// one function, so they can never disagree about which keys a slot holds.
inline uint32_t SlotForKey(std::string_view key, uint32_t num_slots) {
  return num_slots ? uint32_t(Fnv1a(key) % num_slots) : 0;
}

// The rule every slot-scoped request obeys, on every transport: it names one
// of num_slots > 0 slots.
inline Status CheckSlot(uint32_t slot, uint32_t num_slots) {
  if (num_slots > 0 && slot < num_slots) return Status::OK();
  return Status::InvalidArgument("slot " + std::to_string(slot) +
                                 " out of range for " +
                                 std::to_string(num_slots) + " slots");
}

}  // namespace gdpr
