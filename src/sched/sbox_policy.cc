#include "src/sched/sbox_policy.h"

#include <algorithm>
#include <unordered_set>

namespace klink {
namespace {

int64_t SinkWatermarks(const QueryInfo& info) {
  return info.query->sink().forwarded_watermarks();
}

}  // namespace

void StreamBoxPolicy::SelectQueries(const RuntimeSnapshot& snapshot, int slots,
                                    Selection* out) {
  if (slots <= 0) return;
  sticky_.resize(static_cast<size_t>(slots));

  // Ids are attach indexes and retired ones leave gaps in the snapshot, so
  // track taken queries in a set rather than a max-id-sized bitmap.
  std::unordered_set<QueryId> taken;

  // Keep sticky assignments whose query has not yet pushed a watermark
  // through to the sink since selection. A detached query vanishes from
  // the snapshot and releases its slot.
  for (Sticky& s : sticky_) {
    if (s.id < 0) continue;
    const QueryInfo* info = snapshot.Find(s.id);
    if (info == nullptr || !QueryIsReady(*info) ||
        SinkWatermarks(*info) > s.watermarks_at_selection) {
      s.id = -1;
      continue;
    }
    taken.insert(s.id);
  }

  // Fill free slots with the earliest-deadline ready queries.
  std::vector<const QueryInfo*> candidates;
  for (const QueryInfo& info : snapshot.queries) {
    // StreamBox re-ranks every candidate at each cycle boundary (sticky
    // slots, not a priority index).
    if (!QueryIsReady(info) || taken.count(info.id) != 0) continue;
    candidates.push_back(&info);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const QueryInfo* a, const QueryInfo* b) {
              const TimeMicros da =
                  a->upcoming_deadline == kNoTime ? INT64_MAX
                                                  : a->upcoming_deadline;
              const TimeMicros db =
                  b->upcoming_deadline == kNoTime ? INT64_MAX
                                                  : b->upcoming_deadline;
              if (da != db) return da < db;
              return a->id < b->id;
            });
  size_t next_candidate = 0;
  for (Sticky& s : sticky_) {
    if (s.id >= 0) continue;
    if (next_candidate >= candidates.size()) break;
    const QueryInfo* info = candidates[next_candidate++];
    s.id = info->id;
    s.watermarks_at_selection = SinkWatermarks(*info);
  }

  for (const Sticky& s : sticky_) {
    if (s.id >= 0) out->Add(s.id);
  }
}

}  // namespace klink
