// Visited set for the reduced engine's frontier BFS.
//
// The checker dedups on 64-bit canonical state keys (check/world.h), so
// the visited structure only needs membership: insert() answers "was this
// key new?".  The layout is the interning pattern of analytic/interner.h:
// open addressing with linear probing over one power-of-two slot array,
// which doubles once it is half full.
//
// One thread writes it.  check_reduced's serial in-order merge is the
// only place a state is claimed; while a depth's workers expand they only
// read the set (contains()), and the merge runs after they have finished.
// Each worker also keeps a set of its own, cleared at every depth, for
// the keys it already emitted there.
#pragma once

#include <cstdint>
#include <vector>

namespace drsm::check {

class StateStore {
 public:
  /// Sizes the slot array for `expected` keys; it grows past that alone.
  explicit StateStore(std::size_t expected = 0);

  /// Inserts `key`; true when it was not present.  Key 0 is remapped
  /// internally (the empty slot marker), so every 64-bit value is a key.
  bool insert(std::uint64_t key);

  bool contains(std::uint64_t key) const;

  /// Removes every key, keeping the slot array.
  void clear();

  std::size_t size() const { return size_; }

  /// Keys the store holds before its next growth.
  std::size_t capacity() const { return slots_.size() / 2; }

 private:
  void grow();

  std::vector<std::uint64_t> slots_;  // 0 = empty
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace drsm::check
