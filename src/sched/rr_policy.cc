#include "src/sched/rr_policy.h"

#include <algorithm>

namespace klink {

void RoundRobinPolicy::SelectQueries(const RuntimeSnapshot& snapshot,
                                     int slots, Selection* out) {
  const size_t n = snapshot.queries.size();
  if (n == 0 || slots <= 0) return;
  size_t inspected = 0;
  size_t pos = cursor_ % n;
  while (inspected < n && out->size() < static_cast<size_t>(slots)) {
    // The rotation cursor inspects at most one full lap and usually stops
    // after `slots` ready queries.
    const QueryInfo& info = snapshot.queries[pos];
    if (QueryIsReady(info)) out->Add(info.id);
    pos = (pos + 1) % n;
    ++inspected;
  }
  cursor_ = pos;
}

}  // namespace klink
