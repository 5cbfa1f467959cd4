#ifndef KLINK_SCHED_SELECTION_H_
#define KLINK_SCHED_SELECTION_H_

#include <compare>
#include <cstddef>
#include <vector>

#include "src/common/types.h"

namespace klink {

/// A schedulable unit, and one task slot's share of a scheduling cycle:
/// which query (or lane) runs. Every slot is granted the full per-core
/// quantum, net of the policy's own evaluation cost (strict cycle-grained
/// scheduling, Sec. 5). Units order by (query, lane), the tie-break of the
/// lane-granular rankings.
struct SlotAssignment {
  QueryId query = -1;
  /// Lane of the query this slot drains: -1 for the whole query (the only
  /// value for unsharded queries), otherwise a lane index of a sharded
  /// query (see Query::Lane). Shard-granular policies assign individual
  /// lanes so shards of one query drain on distinct slots concurrently.
  int lane = -1;

  auto operator<=>(const SlotAssignment&) const = default;
};

/// A policy's verdict for one scheduling cycle: at most one assignment per
/// task slot, highest priority first. (query, lane) units must be distinct
/// — slot i of the executor runs assignment i, and slot-parallel backends
/// rely on distinct units to avoid sharing operator state across workers;
/// a whole-query assignment (lane -1) conflicts with every lane of the
/// same query.
class Selection {
 public:
  void Clear() { slots_.clear(); }

  /// Appends an assignment of `query`, or of one lane of a sharded query.
  void Add(QueryId query, int lane = -1);

  bool empty() const { return slots_.empty(); }
  size_t size() const { return slots_.size(); }
  SlotAssignment& operator[](size_t i) { return slots_[i]; }
  const SlotAssignment& operator[](size_t i) const { return slots_[i]; }

  std::vector<SlotAssignment>::iterator begin() { return slots_.begin(); }
  std::vector<SlotAssignment>::iterator end() { return slots_.end(); }
  std::vector<SlotAssignment>::const_iterator begin() const {
    return slots_.begin();
  }
  std::vector<SlotAssignment>::const_iterator end() const {
    return slots_.end();
  }

  /// The selected query ids in slot order.
  std::vector<QueryId> ids() const;

  /// True when every assignment names a distinct query (the executor
  /// contract above).
  bool IsDistinct() const;

 private:
  std::vector<SlotAssignment> slots_;
};

}  // namespace klink

#endif  // KLINK_SCHED_SELECTION_H_
