#include "src/runtime/feed_ingest.h"

#include "src/common/check.h"
#include "src/event/stream_queue.h"

namespace klink {

FeedIngest::Totals FeedIngest::Poll(EventFeed& feed, TimeMicros now,
                                    int64_t max_bytes, Query& query) {
  polled_.clear();
  feed.PollUpTo(now, max_bytes, &polled_);
  Totals totals;
  const std::vector<SourceOperator*>& sources = query.sources();
  if (runs_.size() < sources.size()) runs_.resize(sources.size());
  for (const EventFeed::FeedElement& fe : polled_) {
    KLINK_CHECK(fe.source_index >= 0 &&
                fe.source_index < static_cast<int>(sources.size()));
    Event& e = runs_[static_cast<size_t>(fe.source_index)].emplace_back(
        fe.event);
    e.stream = 0;  // source operators are unary
    totals.bytes += e.payload_bytes + StreamQueue::kPerEventOverhead;
    if (e.is_data()) ++totals.data;
  }
  for (size_t s = 0; s < sources.size(); ++s) {
    std::vector<Event>& run = runs_[s];
    if (run.empty()) continue;
    sources[s]->input(0).PushBatch(run.data(),
                                   static_cast<int64_t>(run.size()));
    run.clear();
  }
  return totals;
}

}  // namespace klink
