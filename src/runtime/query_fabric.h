#ifndef KLINK_RUNTIME_QUERY_FABRIC_H_
#define KLINK_RUNTIME_QUERY_FABRIC_H_

#include <memory>
#include <vector>

#include "src/common/types.h"
#include "src/query/query.h"
#include "src/runtime/event_feed.h"

namespace klink {

/// Lifecycle of one attached query.
enum class QueryState {
  kActive,    ///< ingesting (when it has a feed) and schedulable
  kDraining,  ///< detach requested: feed dropped, runs until queues empty
  kDetached,  ///< retired: stats readable, no longer scheduled
  kUnknown,   ///< id never attached to this fabric
};

/// The engine's query control plane: the mutable set of deployed queries,
/// supporting live attach/detach while traffic flows (DESIGN.md "Query
/// fabric").
///
/// One append-only table indexed by QueryId:
///
///  - Attach appends a slot, and the query's id is the slot's index. Ids
///    are never reused, so a stale id held across a detach resolves to the
///    retired query instead of aliasing a newer tenant, and ids follow
///    attach order.
///  - Detach is graceful: the feed is dropped immediately but the query
///    keeps its scheduling eligibility until its queues drain (in-flight
///    elements — including checkpoint barriers — are processed, not
///    discarded).
///  - A retired query stays in its slot as kDetached (not freed): its
///    sinks' recorded statistics stay readable via Find().
///
/// The engine reads every live query once per cycle, in id order
/// (live()), to build the runtime snapshot and the memory total.
class QueryFabric {
 public:
  /// One live slot's view handed to engine loops.
  struct LiveQuery {
    QueryId id = -1;
    Query* query = nullptr;
    EventFeed* feed = nullptr;  // null while draining or for manual tests
  };

  QueryFabric();

  QueryFabric(const QueryFabric&) = delete;
  QueryFabric& operator=(const QueryFabric&) = delete;
  ~QueryFabric();

  /// Attaches a query: appends a slot and binds its index onto the query
  /// as the query's id. `feed` may be null (manually driven).
  QueryId Attach(std::unique_ptr<Query> query, std::unique_ptr<EventFeed> feed,
                 TimeMicros deploy_time);

  /// Stops ingestion now. A query with queued work drains and retires via
  /// SweepDrained once empty; an empty one retires at once. No-op on
  /// non-live ids.
  void Detach(QueryId id);

  /// Retires draining queries whose queues are empty, appending each
  /// retired query to `retired` (the engine notifies the checkpoint
  /// coordinator and the policy). O(1) when nothing is draining — safe to
  /// call every cycle.
  void SweepDrained(std::vector<QueryId>* retired);

  /// ---- lookup ---------------------------------------------------------
  QueryState state(QueryId id) const;
  /// True while the query is schedulable (active or draining).
  bool IsLive(QueryId id) const;
  /// Live or retired query, nullptr for unknown ids.
  Query* Find(QueryId id);
  const Query* Find(QueryId id) const;

  int live_count() const { return live_count_; }
  int draining_count() const { return draining_; }
  /// Queries ever attached, retired ones included: ids are [0, size()).
  int size() const { return static_cast<int>(slots_.size()); }

  /// Live queries in id order. The span is rebuilt lazily after churn;
  /// steady-state calls are O(1).
  const std::vector<LiveQuery>& live() const;

  /// Live queries with a non-null feed, in id order (the engine's ingest
  /// loop walks only these — idle tenants cost nothing per cycle).
  const std::vector<LiveQuery>& fed() const;

  /// KLINK_AUDIT=1 invariant check (also callable from tests): the live
  /// count matches a full scan, and every slot's query carries the slot's
  /// index as its id. Aborts on the first violation.
  void AuditConsistency() const;

 private:
  /// Lets corruption-injection death tests plant inconsistencies to prove
  /// AuditConsistency detects them. Test-only.
  friend class QueryFabricTestPeer;

  struct Slot {
    std::unique_ptr<Query> query;
    std::unique_ptr<EventFeed> feed;
    QueryState state = QueryState::kActive;
  };

  /// The slot of `id`, nullptr for ids never attached.
  Slot* SlotOf(QueryId id);
  const Slot* SlotOf(QueryId id) const;
  void Retire(Slot& s);
  void InvalidateViews() { views_valid_ = false; }
  void RebuildViews() const;

  std::vector<Slot> slots_;

  int live_count_ = 0;
  int draining_ = 0;

  /// Cached id-order views, invalidated by attach/detach and rebuilt
  /// lazily on access (mutable: a logically-const cache).
  mutable std::vector<LiveQuery> live_view_;
  mutable std::vector<LiveQuery> fed_view_;
  mutable bool views_valid_ = false;

  /// Sampled from KLINK_AUDIT once at construction.
  const bool audit_;
};

}  // namespace klink

#endif  // KLINK_RUNTIME_QUERY_FABRIC_H_
