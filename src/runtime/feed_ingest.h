#ifndef KLINK_RUNTIME_FEED_INGEST_H_
#define KLINK_RUNTIME_FEED_INGEST_H_

#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/event/event.h"
#include "src/query/query.h"
#include "src/runtime/event_feed.h"

namespace klink {

/// Moves one poll of a query's feed into the query's source queues, for
/// Node::Ingest (runtime/node.h), which both engines call. The polled elements are split into one run
/// per source, keeping delivery order, and each run enters its queue with
/// one StreamQueue::PushBatch: one memory delta per source per poll instead
/// of one per element. Source queues are independent, so their contents
/// equal those of per-element pushes. Holds only reusable scratch.
class FeedIngest {
 public:
  /// What one poll moved.
  struct Totals {
    /// Data (non-punctuation) elements: the engines' ingested-events count.
    int64_t data = 0;
    /// Simulated bytes added to the source queues; 0 iff nothing was due.
    int64_t bytes = 0;
  };

  /// Polls `feed` for the elements due by `now` within `max_bytes` and
  /// pushes them into `query`'s source queues.
  Totals Poll(EventFeed& feed, TimeMicros now, int64_t max_bytes,
              Query& query);

 private:
  std::vector<EventFeed::FeedElement> polled_;
  /// runs_[s]: this poll's elements for source s.
  std::vector<std::vector<Event>> runs_;
};

}  // namespace klink

#endif  // KLINK_RUNTIME_FEED_INGEST_H_
