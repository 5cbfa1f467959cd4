#ifndef KLINK_DIST_NODE_H_
#define KLINK_DIST_NODE_H_

#include <memory>

#include "src/common/types.h"
#include "src/runtime/memory_tracker.h"
#include "src/sched/policy.h"

namespace klink {

/// One compute node of a distributed deployment: its own task slots
/// (cores), its own memory budget, and its own autonomous policy instance
/// (Klink runs decentralized, Sec. 4).
struct NodeConfig {
  int num_cores = 8;
  int64_t memory_capacity_bytes = 256ll << 20;
};

class Node {
 public:
  Node(NodeId id, const NodeConfig& config,
       std::unique_ptr<SchedulingPolicy> policy)
      : id_(id),
        config_(config),
        policy_(std::move(policy)),
        memory_(config.memory_capacity_bytes) {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  const NodeConfig& config() const { return config_; }
  SchedulingPolicy& policy() { return *policy_; }
  MemoryTracker& memory() { return memory_; }
  const MemoryTracker& memory() const { return memory_; }

 private:
  NodeId id_;
  NodeConfig config_;
  std::unique_ptr<SchedulingPolicy> policy_;
  MemoryTracker memory_;
};

}  // namespace klink

#endif  // KLINK_DIST_NODE_H_
