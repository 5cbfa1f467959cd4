#include "src/runtime/query_fabric.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "src/common/check.h"
#include "src/runtime/audit.h"

namespace klink {

QueryFabric::QueryFabric() : audit_(AuditEnabledFromEnv()) {}

QueryFabric::~QueryFabric() = default;

QueryFabric::Slot* QueryFabric::LiveSlot(QueryId id) {
  if (id < 0) return nullptr;
  const int32_t slot = QuerySlot(id);
  if (slot >= static_cast<int32_t>(slots_.size())) return nullptr;
  Slot& s = slots_[static_cast<size_t>(slot)];
  if (s.query == nullptr || s.query->id() != id) return nullptr;
  return &s;
}

const QueryFabric::Slot* QueryFabric::LiveSlot(QueryId id) const {
  return const_cast<QueryFabric*>(this)->LiveSlot(id);
}

QueryId QueryFabric::Attach(std::unique_ptr<Query> query,
                            std::unique_ptr<EventFeed> feed,
                            TimeMicros deploy_time) {
  KLINK_CHECK(query != nullptr);
  int32_t index;
  if (!free_slots_.empty()) {
    // Lowest free slot first: ids stay small and attach order deterministic.
    std::pop_heap(free_slots_.begin(), free_slots_.end(),
                  std::greater<int32_t>());
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    index = static_cast<int32_t>(slots_.size());
    KLINK_CHECK_LE(index, kQuerySlotMask);  // slot space exhausted
    slots_.emplace_back();
  }
  Slot& s = slots_[static_cast<size_t>(index)];
  KLINK_CHECK(s.query == nullptr);
  KLINK_CHECK_LE(s.generation, kMaxQueryGeneration);
  const QueryId id = MakeQueryId(index, s.generation);
  query->BindId(id);
  query->set_deploy_time(deploy_time);
  s.query = std::move(query);
  s.feed = std::move(feed);
  s.deploy_time = deploy_time;
  s.state = QueryState::kActive;
  ++live_count_;
  ++attached_total_;
  InvalidateViews();
  if (audit_) AuditConsistency();
  return id;
}

void QueryFabric::Detach(QueryId id) {
  Slot* s = LiveSlot(id);
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
  Retire(QuerySlot(id));
  if (audit_) AuditConsistency();
}

void QueryFabric::SweepDrained(std::vector<QueryId>* retired) {
  if (draining_ == 0) return;
  for (size_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    if (s.state != QueryState::kDraining) continue;
    if (s.query->QueuedEvents() > 0) continue;
    const QueryId id = s.query->id();
    Retire(static_cast<int32_t>(i));
    if (retired != nullptr) retired->push_back(id);
  }
}

void QueryFabric::Retire(int32_t slot_index) {
  Slot& s = slots_[static_cast<size_t>(slot_index)];
  KLINK_CHECK(s.query != nullptr);
  if (s.state == QueryState::kDraining) --draining_;
  const QueryId id = s.query->id();
  retired_.emplace(id, std::move(s.query));
  s.feed.reset();
  s.state = QueryState::kUnknown;
  // The next tenant of this slot gets a fresh generation, so the retired
  // id can never alias it.
  ++s.generation;
  free_slots_.push_back(slot_index);
  std::push_heap(free_slots_.begin(), free_slots_.end(),
                 std::greater<int32_t>());
  --live_count_;
  InvalidateViews();
}

QueryState QueryFabric::state(QueryId id) const {
  const Slot* s = LiveSlot(id);
  if (s != nullptr) return s->state;
  return retired_.count(id) != 0 ? QueryState::kDetached : QueryState::kUnknown;
}

bool QueryFabric::IsLive(QueryId id) const {
  const Slot* s = LiveSlot(id);
  return s != nullptr && s->state != QueryState::kDetached;
}

Query* QueryFabric::Find(QueryId id) {
  Slot* s = LiveSlot(id);
  if (s != nullptr) return s->query.get();
  auto it = retired_.find(id);
  return it == retired_.end() ? nullptr : it->second.get();
}

const Query* QueryFabric::Find(QueryId id) const {
  return const_cast<QueryFabric*>(this)->Find(id);
}

void QueryFabric::RebuildViews() const {
  live_view_.clear();
  fed_view_.clear();
  for (const Slot& s : slots_) {
    if (s.query == nullptr) continue;
    LiveQuery lq;
    lq.id = s.query->id();
    lq.query = s.query.get();
    lq.feed = s.feed.get();
    lq.deploy_time = s.deploy_time;
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
  // (a) live_count_ matches a full scan; slot ids decode back to their
  // index.
  int live = 0;
  for (size_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    if (s.query == nullptr) continue;
    ++live;
    KLINK_CHECK_EQ(QuerySlot(s.query->id()), static_cast<int32_t>(i));
    KLINK_CHECK_EQ(QueryGeneration(s.query->id()), s.generation);
    KLINK_CHECK(s.state == QueryState::kActive ||
                s.state == QueryState::kDraining);
  }
  KLINK_CHECK_EQ(live, live_count_);
  // (b) retired ids never alias a live slot generation.
  for (const auto& [id, query] : retired_) {
    KLINK_CHECK(query != nullptr);
    const int32_t slot = QuerySlot(id);
    if (slot < static_cast<int32_t>(slots_.size())) {
      KLINK_CHECK_LT(QueryGeneration(id),
                     slots_[static_cast<size_t>(slot)].generation);
    }
  }
}

}  // namespace klink
