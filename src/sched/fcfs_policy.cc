#include "src/sched/fcfs_policy.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace klink {

void FcfsPolicy::SelectQueries(const RuntimeSnapshot& snapshot, int slots,
                               Selection* out) {
  // Rank schedulable units — whole unsharded queries and individual lanes
  // of sharded ones — by the ingestion time of their oldest queued
  // element. Shards of one query compete independently, so a hot shard's
  // backlog is drained without waiting for its siblings.
  std::vector<std::pair<TimeMicros, SlotAssignment>> ready;
  ready.reserve(snapshot.queries.size());
  for (const QueryInfo& info : snapshot.queries) {
    for (const LaneInfo& unit : info.units()) {
      if (unit.queued_events <= 0) continue;
      ready.emplace_back(unit.oldest_ingest,
                         SlotAssignment{info.id, unit.lane});
    }
  }
  const size_t take = std::min(
      ready.size(), static_cast<size_t>(std::max(slots, 0)));
  std::partial_sort(ready.begin(), ready.begin() + static_cast<long>(take),
                    ready.end());
  for (size_t i = 0; i < take; ++i) {
    out->Add(ready[i].second.query, ready[i].second.lane);
  }
}

}  // namespace klink
