#ifndef KLINK_COMMON_FLAT_TABLE_H_
#define KLINK_COMMON_FLAT_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/hash.h"

namespace klink {

/// Hash table from uint64_t keys to `V`, for the keyed state of window
/// panes. Entries are stored densely in insertion order; a slot index of
/// power-of-two size, probed linearly from Mix64(key), maps keys to
/// entries and is kept at most half full. Both vectors grow by doubling,
/// so inserting a key allocates nothing of its own. There is no per-key
/// erase: pane state is dropped whole.
///
/// Iteration visits entries in insertion order, which follows arrival
/// order; readers whose output depends on order (window firing,
/// checkpoints, re-shard export) sort the keys first.
template <typename V>
class FlatTable {
 public:
  struct Entry {
    uint64_t key;
    V value;
  };

  /// Returns the value stored under `key`, value-initializing a new entry
  /// if there is none, and whether it was inserted. The pointer stays valid
  /// until the next insertion.
  std::pair<V*, bool> TryEmplace(uint64_t key) {
    size_t slot = 0;
    if (!slots_.empty()) {
      slot = SlotOf(key);
      if (slots_[slot] != 0) return {&entries_[slots_[slot] - 1].value, false};
    }
    if ((entries_.size() + 1) * 2 > slots_.size()) {
      Rehash(slots_.empty() ? kMinSlots : slots_.size() * 2);
      slot = SlotOf(key);
    }
    KLINK_CHECK_LT(entries_.size(), size_t{UINT32_MAX});
    slots_[slot] = static_cast<uint32_t>(entries_.size() + 1);
    entries_.push_back(Entry{key, V{}});
    return {&entries_.back().value, true};
  }

  /// The value stored under `key`, or nullptr.
  const V* Find(uint64_t key) const {
    if (slots_.empty()) return nullptr;
    const uint32_t s = slots_[SlotOf(key)];
    return s == 0 ? nullptr : &entries_[s - 1].value;
  }
  V* Find(uint64_t key) {
    return const_cast<V*>(std::as_const(*this).Find(key));
  }

  size_t size() const { return entries_.size(); }

  /// Sizes both vectors for `n` entries, so that many insertions do not
  /// grow them.
  void Reserve(size_t n) {
    entries_.reserve(n);
    size_t slots = kMinSlots;
    while (slots < n * 2) slots *= 2;
    if (slots > slots_.size()) Rehash(slots);
  }

  const Entry* begin() const { return entries_.data(); }
  const Entry* end() const { return entries_.data() + entries_.size(); }

 private:
  static constexpr size_t kMinSlots = 8;

  /// The slot holding `key`, or the empty slot where it would go.
  /// Requires a non-empty index with at least one empty slot.
  size_t SlotOf(uint64_t key) const {
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>(Mix64(key)) & mask;
    while (slots_[i] != 0 && entries_[slots_[i] - 1].key != key) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void Rehash(size_t num_slots) {
    slots_.assign(num_slots, 0);
    for (size_t e = 0; e < entries_.size(); ++e) {
      slots_[SlotOf(entries_[e].key)] = static_cast<uint32_t>(e + 1);
    }
  }

  std::vector<Entry> entries_;
  /// 1 + index into entries_, or 0 for an empty slot.
  std::vector<uint32_t> slots_;
};

}  // namespace klink

#endif  // KLINK_COMMON_FLAT_TABLE_H_
