#include "src/runtime/query_fabric.h"

#include <limits>
#include <utility>

#include "src/common/check.h"
#include "src/runtime/audit.h"

namespace klink {

QueryFabric::QueryFabric() : audit_(AuditEnabledFromEnv()) {}

QueryFabric::~QueryFabric() = default;

QueryFabric::Slot* QueryFabric::SlotOf(QueryId id) {
  if (id < 0 || id >= size()) return nullptr;
  return &slots_[static_cast<size_t>(id)];
}

const QueryFabric::Slot* QueryFabric::SlotOf(QueryId id) const {
  return const_cast<QueryFabric*>(this)->SlotOf(id);
}

QueryId QueryFabric::Attach(std::unique_ptr<Query> query,
                            std::unique_ptr<EventFeed> feed,
                            TimeMicros deploy_time) {
  KLINK_CHECK(query != nullptr);
  KLINK_CHECK_LT(slots_.size(),
                 static_cast<size_t>(std::numeric_limits<QueryId>::max()));
  const QueryId id = size();
  query->BindId(id);
  query->set_deploy_time(deploy_time);
  slots_.push_back(Slot{std::move(query), std::move(feed)});
  ++live_count_;
  InvalidateViews();
  if (audit_) AuditConsistency();
  return id;
}

void QueryFabric::Detach(QueryId id) {
  Slot* s = SlotOf(id);
  if (s == nullptr || s->state == QueryState::kDetached) return;
  s->feed.reset();
  if (s->query->QueuedEvents() > 0) {
    // Queued work (including in-flight checkpoint barriers) still runs;
    // SweepDrained retires the query once the queues empty.
    if (s->state != QueryState::kDraining) ++draining_;
    s->state = QueryState::kDraining;
    InvalidateViews();  // drops the feed from fed()
    return;
  }
  Retire(*s);
  if (audit_) AuditConsistency();
}

void QueryFabric::SweepDrained(std::vector<QueryId>* retired) {
  if (draining_ == 0) return;
  for (Slot& s : slots_) {
    if (s.state != QueryState::kDraining) continue;
    if (s.query->QueuedEvents() > 0) continue;
    Retire(s);
    if (retired != nullptr) retired->push_back(s.query->id());
  }
}

void QueryFabric::Retire(Slot& s) {
  if (s.state == QueryState::kDraining) --draining_;
  s.state = QueryState::kDetached;
  --live_count_;
  InvalidateViews();
}

QueryState QueryFabric::state(QueryId id) const {
  const Slot* s = SlotOf(id);
  return s == nullptr ? QueryState::kUnknown : s->state;
}

bool QueryFabric::IsLive(QueryId id) const {
  const Slot* s = SlotOf(id);
  return s != nullptr && s->state != QueryState::kDetached;
}

Query* QueryFabric::Find(QueryId id) {
  Slot* s = SlotOf(id);
  return s == nullptr ? nullptr : s->query.get();
}

const Query* QueryFabric::Find(QueryId id) const {
  return const_cast<QueryFabric*>(this)->Find(id);
}

void QueryFabric::RebuildViews() const {
  live_view_.clear();
  fed_view_.clear();
  for (const Slot& s : slots_) {
    if (s.state == QueryState::kDetached) continue;
    const LiveQuery lq{s.query->id(), s.query.get(), s.feed.get()};
    live_view_.push_back(lq);
    if (s.feed != nullptr) fed_view_.push_back(lq);
  }
  views_valid_ = true;
}

const std::vector<QueryFabric::LiveQuery>& QueryFabric::live() const {
  if (!views_valid_) RebuildViews();
  return live_view_;
}

const std::vector<QueryFabric::LiveQuery>& QueryFabric::fed() const {
  if (!views_valid_) RebuildViews();
  return fed_view_;
}

void QueryFabric::AuditConsistency() const {
  // live_count_ matches a full scan; each slot's query id is its index.
  int live = 0;
  for (size_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    KLINK_CHECK(s.query != nullptr);
    KLINK_CHECK_EQ(s.query->id(), static_cast<QueryId>(i));
    if (s.state != QueryState::kDetached) ++live;
  }
  KLINK_CHECK_EQ(live, live_count_);
}

}  // namespace klink
