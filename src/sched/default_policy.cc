#include "src/sched/default_policy.h"

#include <algorithm>

namespace klink {

DefaultPolicy::DefaultPolicy(uint64_t seed) : rng_(seed) {}

void DefaultPolicy::SelectQueries(const RuntimeSnapshot& snapshot, int slots,
                                  Selection* out) {
  ready_scratch_.clear();
  // The uniform-random baseline draws from the full ready set.
  for (const QueryInfo& info : snapshot.queries) {
    if (QueryIsReady(info)) ready_scratch_.push_back(&info);
  }
  // Partial Fisher-Yates: draw `slots` distinct queries uniformly.
  const size_t take = std::min(ready_scratch_.size(),
                               static_cast<size_t>(std::max(slots, 0)));
  for (size_t i = 0; i < take; ++i) {
    const size_t j = static_cast<size_t>(rng_.NextInt(
        static_cast<int64_t>(i),
        static_cast<int64_t>(ready_scratch_.size()) - 1));
    std::swap(ready_scratch_[i], ready_scratch_[j]);
    out->Add(ready_scratch_[i]->id);
  }
}

}  // namespace klink
