#include "src/sched/selection.h"

namespace klink {

void Selection::Add(QueryId query, int lane) {
  slots_.push_back(SlotAssignment{query, lane});
}

std::vector<QueryId> Selection::ids() const {
  std::vector<QueryId> out;
  out.reserve(slots_.size());
  for (const SlotAssignment& a : slots_) out.push_back(a.query);
  return out;
}

bool Selection::IsDistinct() const {
  for (size_t i = 0; i < slots_.size(); ++i) {
    for (size_t j = i + 1; j < slots_.size(); ++j) {
      if (slots_[i].query != slots_[j].query) continue;
      // Same query: distinct only when both name lanes and the lanes
      // differ — a whole-query slot (lane -1) overlaps every lane.
      if (slots_[i].lane == -1 || slots_[j].lane == -1 ||
          slots_[i].lane == slots_[j].lane) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace klink
