#include "src/sched/fcfs_policy.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace klink {

void FcfsPolicy::SelectQueries(const RuntimeSnapshot& snapshot, int slots,
                               Selection* out) {
  // Rank schedulable units — whole unsharded queries and individual lanes
  // of sharded ones — by the ingestion time of their oldest queued
  // element. Shards of one query compete independently, so a hot shard's
  // backlog is drained without waiting for its siblings.
  struct Cand {
    TimeMicros oldest;
    int64_t unit;
  };
  std::vector<Cand> ready;
  ready.reserve(snapshot.queries.size());
  for (const QueryInfo& info : snapshot.queries) {
    for (size_t li = 0; li < NumLanes(info); ++li) {
      const LaneView lane = LaneAt(info, li);
      if (lane.queued_events <= 0) continue;
      ready.push_back({lane.oldest_ingest, UnitKey(info.id, lane.lane)});
    }
  }
  const size_t take = std::min(
      ready.size(), static_cast<size_t>(std::max(slots, 0)));
  std::partial_sort(ready.begin(), ready.begin() + static_cast<long>(take),
                    ready.end(), [](const Cand& a, const Cand& b) {
                      if (a.oldest != b.oldest) return a.oldest < b.oldest;
                      return a.unit < b.unit;
                    });
  for (size_t i = 0; i < take; ++i) {
    out->AddLane(UnitQuery(ready[i].unit), UnitLane(ready[i].unit));
  }
}

}  // namespace klink
