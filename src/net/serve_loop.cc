#include "src/net/serve_loop.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>

#include "src/common/thread_annotations.h"
#include "src/net/ingest_gateway.h"
#include "src/net/ingest_server.h"
#include "src/net/socket.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/engine.h"

namespace klink {
namespace {

/// The longest the engine thread waits between looks at its clocks and
/// the checkpoint writer's durable epochs, and the I/O thread's poll
/// timeout (idle-connection checks).
constexpr DurationMicros kWaitSlice = MillisToMicros(10);

/// Elements queued in a live query.
int64_t QueuedEvents(const Engine& engine) {
  int64_t total = 0;
  for (const QueryFabric::LiveQuery& lq : engine.fabric().live()) {
    total += lq.query->QueuedEvents();
  }
  return total;
}

/// The I/O thread: polls, decodes and stages for the whole serve, drain
/// included, until Stop joins it.
class IoThread {
 public:
  explicit IoThread(IngestServer* server)
      : server_(server), thread_([this] { Run(); }) {}

  void Stop() {
    stop_.store(true, std::memory_order_release);
    server_->Wake();
    // Under the schedule explorer the thread needs turns to sign off; an
    // uninstrumented join would deadlock against the turn token.
    ScheduleQuiesceBeforeJoin({thread_.get_id()});
    thread_.join();
  }

 private:
  void Run() {
    ThreadScheduleScope sched("ingest-io");
    while (!stop_.load(std::memory_order_acquire)) {
      server_->PollOnce(static_cast<int>(kWaitSlice / 1000));
    }
  }

  IngestServer* server_;
  /// Set once by the engine thread; the I/O thread reads it after every
  /// poll, and Wake ends the poll it is in.
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace

void ServeIngest(Engine* engine, IngestServer* server, IngestGateway* gateway,
                 CheckpointCoordinator* coordinator, TimeMicros duration,
                 bool lockstep, const std::function<bool()>& each_iteration) {
  const DurationMicros cycle = engine->config().cycle_length;
  // The dynamic-attach hook deploys a query, which is the engine thread's
  // work: the I/O thread hands each unknown stream over and waits.
  std::function<bool(uint32_t)> attach =
      server->ExchangeUnknownStreamHook(nullptr);
  if (attach != nullptr) {
    server->ExchangeUnknownStreamHook(
        [gateway](uint32_t id) { return gateway->RequestAttach(id); });
  }
  IoThread io(server);

  // Reads what arrived, answering an attach request first. Lockstep cycles
  // run only through prefixes every stream has fully delivered, so results
  // are independent of when bytes arrive and of the hand-off.
  const auto arrivals = [&]() {
    IngestGateway::Arrivals a = gateway->ReadArrivals();
    if (a.attach_requested) {
      gateway->AnswerAttach(attach);
      a = gateway->ReadArrivals();
    }
    return a;
  };
  // Waits until something arrives, or `timeout` passes, delivering
  // durable-epoch acks first: no cycle runs while it waits.
  const auto await = [&](uint64_t seen, DurationMicros timeout) {
    if (coordinator != nullptr) coordinator->DeliverDurableEpochs();
    gateway->AwaitChange(seen, std::min(timeout, kWaitSlice));
  };
  const int64_t wall_start = WallMicros();
  while (engine->now() < duration) {
    const IngestGateway::Arrivals a = arrivals();
    const bool hold = each_iteration != nullptr && each_iteration();
    if (lockstep) {
      const TimeMicros safe = hold ? engine->now() : a.frontier;
      if (safe >= duration) {
        // A cycle per iteration, so `each_iteration` keeps running.
        engine->RunUntil(std::min(duration, engine->now() + cycle));
      } else if (engine->now() + cycle <= safe) {
        engine->RunUntil(engine->now() + cycle);
      } else {
        await(a.version, kWaitSlice);
      }
    } else {
      const TimeMicros elapsed = WallMicros() - wall_start;
      if (elapsed >= duration) {
        engine->RunUntil(duration);  // final (possibly partial) step
      } else if (engine->now() + cycle <= elapsed) {
        engine->RunUntil(elapsed);
      } else {
        await(a.version, cycle - (elapsed - engine->now()));
      }
    }
  }
  // A crash + --restore, or a re-shard pausing at another barrier, shifts
  // when queued work is absorbed, so a lockstep run cut at a fixed virtual
  // time would fingerprint whatever tail it had not drained. Staged events
  // count: a delayed tail would otherwise be cut off once the queues empty.
  // Virtual time advances only while something is staged or queued. While
  // only connections are open, the loop waits for their goodbyes in wall
  // time: idle cycles would spend the 60 s virtual deadline in
  // milliseconds and close a client still mid-replay.
  if (lockstep) {
    const TimeMicros drain_deadline = engine->now() + SecondsToMicros(60);
    int64_t idle_since = -1;  // wall time the drain last had nothing to run
    while (engine->now() < drain_deadline) {
      const IngestGateway::Arrivals a = arrivals();
      const bool pending = a.staged_events + QueuedEvents(*engine) > 0;
      if (!pending && a.connections == 0) break;
      if (each_iteration != nullptr) each_iteration();
      if (pending) {
        engine->RunUntil(engine->now() + cycle);
        idle_since = -1;
      } else {
        const int64_t wall = WallMicros();
        if (idle_since < 0) idle_since = wall;
        if (wall - idle_since >= kGoodbyeWait) break;
        await(a.version, kGoodbyeWait - (wall - idle_since));
      }
    }
  }
  gateway->CloseAttach();
  io.Stop();
  server->ExchangeUnknownStreamHook(std::move(attach));
  if (coordinator != nullptr) coordinator->Flush();
  server->Stop();
}

}  // namespace klink
