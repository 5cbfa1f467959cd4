#include "src/sched/policy.h"

#include <algorithm>

namespace klink {

bool QueryIsReady(const QueryInfo& info) { return info.queued_events > 0; }

void SelectTopReadyQueries(
    const RuntimeSnapshot& snapshot, int slots,
    const std::function<bool(const QueryInfo&, const QueryInfo&)>& better,
    Selection* out) {
  std::vector<const QueryInfo*> ready;
  ready.reserve(snapshot.queries.size());
  // Shared by the whole-query rankings: HR and memory-mode Klink.
  for (const QueryInfo& info : snapshot.queries) {
    if (QueryIsReady(info)) ready.push_back(&info);
  }
  const size_t take = std::min(ready.size(), static_cast<size_t>(
                                                 std::max(slots, 0)));
  std::partial_sort(ready.begin(), ready.begin() + static_cast<long>(take),
                    ready.end(),
                    [&better](const QueryInfo* a, const QueryInfo* b) {
                      return better(*a, *b);
                    });
  for (size_t i = 0; i < take; ++i) out->Add(ready[i]->id);
}

}  // namespace klink
