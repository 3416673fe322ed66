#include "check/state_store.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "support/hash.h"

namespace drsm::check {

namespace {

// 0 marks an empty slot.
std::uint64_t stored(std::uint64_t key) { return key == 0 ? 1 : key; }

// Canonical keys are minima over permutation orbits, which skews their
// high bits toward zero; the slot comes from the bijectively re-mixed
// key, so skewed keys still spread.
std::size_t home_slot(std::uint64_t key, std::size_t mask) {
  return static_cast<std::size_t>(hash_mix(key)) & mask;
}

}  // namespace

StateStore::StateStore(std::size_t expected)
    : slots_(std::bit_ceil(std::max<std::size_t>(64, expected * 2)), 0),
      mask_(slots_.size() - 1) {}

bool StateStore::insert(std::uint64_t key) {
  key = stored(key);
  std::size_t at = home_slot(key, mask_);
  for (; slots_[at] != 0; at = (at + 1) & mask_)
    if (slots_[at] == key) return false;
  slots_[at] = key;
  if (++size_ > capacity()) grow();
  return true;
}

bool StateStore::contains(std::uint64_t key) const {
  key = stored(key);
  for (std::size_t at = home_slot(key, mask_); slots_[at] != 0;
       at = (at + 1) & mask_)
    if (slots_[at] == key) return true;
  return false;
}

void StateStore::clear() {
  std::fill(slots_.begin(), slots_.end(), 0);
  size_ = 0;
}

void StateStore::grow() {
  const std::vector<std::uint64_t> old =
      std::exchange(slots_, std::vector<std::uint64_t>(slots_.size() * 2, 0));
  mask_ = slots_.size() - 1;
  for (const std::uint64_t key : old) {
    if (key == 0) continue;
    std::size_t at = home_slot(key, mask_);
    while (slots_[at] != 0) at = (at + 1) & mask_;
    slots_[at] = key;
  }
}

}  // namespace drsm::check
