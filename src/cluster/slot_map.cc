#include "cluster/slot_map.h"

#include <algorithm>

#include "common/hash.h"

namespace gdpr::cluster {

SlotMap::SlotMap(uint32_t num_slots, uint32_t num_nodes)
    : num_slots_(num_slots ? num_slots : kDefaultSlots),
      num_nodes_(num_nodes ? num_nodes : 1),
      owner_(new std::atomic<uint32_t>[num_slots_]) {
  for (uint32_t s = 0; s < num_slots_; ++s) {
    owner_[s].store(uint32_t(uint64_t(s) * num_nodes_ / num_slots_),
                    std::memory_order_relaxed);
  }
}

uint32_t SlotMap::SlotOf(const std::string& key) const {
  // The shared slot hash: a node serving a slot-scoped export computes
  // membership with this exact function.
  return SlotForKey(key, num_slots_);
}

std::vector<uint32_t> SlotMap::SlotsOwnedBy(uint32_t node) const {
  std::vector<uint32_t> out;
  for (uint32_t s = 0; s < num_slots_; ++s) {
    if (OwnerOf(s) == node) out.push_back(s);
  }
  return out;
}

std::vector<size_t> SlotMap::SlotsPerNode() const {
  std::vector<size_t> counts(num_nodes_, 0);
  for (uint32_t s = 0; s < num_slots_; ++s) {
    const uint32_t n = OwnerOf(s);
    if (n < num_nodes_) ++counts[n];
  }
  return counts;
}

std::vector<std::pair<uint32_t, uint32_t>> SlotMap::PlanRebalance() const {
  // Targets: base = S/N everywhere, the first S%N nodes get one extra.
  const size_t base = num_slots_ / num_nodes_;
  const size_t extra = num_slots_ % num_nodes_;
  std::vector<size_t> target(num_nodes_, base);
  for (size_t n = 0; n < extra; ++n) ++target[n];

  std::vector<size_t> have = SlotsPerNode();
  std::vector<std::pair<uint32_t, uint32_t>> moves;
  // Donors give their highest-numbered surplus slots to the first node
  // still under target — deterministic, and contiguity-preserving enough
  // for a planner this size.
  uint32_t receiver = 0;
  for (uint32_t donor = 0; donor < num_nodes_; ++donor) {
    if (have[donor] <= target[donor]) continue;
    std::vector<uint32_t> slots = SlotsOwnedBy(donor);
    while (have[donor] > target[donor]) {
      while (receiver < num_nodes_ && have[receiver] >= target[receiver]) {
        ++receiver;
      }
      if (receiver >= num_nodes_) return moves;
      moves.emplace_back(slots.back(), receiver);
      slots.pop_back();
      --have[donor];
      ++have[receiver];
    }
  }
  return moves;
}

}  // namespace gdpr::cluster
