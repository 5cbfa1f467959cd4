#ifndef KLINK_RUNTIME_BATCH_EMITTER_H_
#define KLINK_RUNTIME_BATCH_EMITTER_H_

#include <cstdint>
#include <vector>

#include "src/event/stream_queue.h"
#include "src/operators/operator.h"

namespace klink {

/// Buffering emitter for the batched drain: outputs accumulate in a
/// borrowed scratch vector (stamped with the downstream stream index) and
/// Flush() appends the whole run to the downstream queue with a single
/// StreamQueue::PushBatch — one byte/data-count accounting update instead
/// of one per element. Order-equivalent to pushing each output as it is
/// emitted, because the drain flushes before any downstream operator runs
/// and operators never read their own output queue.
class BatchEmitter final : public Emitter {
 public:
  BatchEmitter(StreamQueue* queue, int stream, std::vector<Event>* scratch)
      : queue_(queue), stream_(stream), scratch_(scratch) {
    scratch_->clear();
  }

  void Emit(const Event& e) override {
    if (queue_ == nullptr) return;  // sink: outputs leave the system
    scratch_->push_back(e);
    scratch_->back().stream = stream_;
  }

  void EmitRun(const Event* events, int64_t n) override {
    if (queue_ == nullptr) return;
    const size_t old_size = scratch_->size();
    scratch_->insert(scratch_->end(), events, events + n);
    for (size_t i = old_size; i < scratch_->size(); ++i) {
      (*scratch_)[i].stream = stream_;
    }
  }

  /// Appends everything buffered to the downstream queue and resets the
  /// scratch. Must be called before the downstream operator is visited;
  /// the drain loop flushes after every ProcessBatch call, which also
  /// bounds the scratch at batch size x operator fan-out.
  void Flush() {
    if (queue_ == nullptr || scratch_->empty()) return;
    queue_->PushBatch(scratch_->data(), static_cast<int64_t>(scratch_->size()));
    scratch_->clear();
  }

 private:
  StreamQueue* queue_;
  int stream_;
  std::vector<Event>* scratch_;
};

}  // namespace klink

#endif  // KLINK_RUNTIME_BATCH_EMITTER_H_
