#include "src/net/serve_loop.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "src/net/ingest_gateway.h"
#include "src/net/ingest_server.h"
#include "src/net/socket.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/engine.h"

namespace klink {
namespace {

/// Elements staged in the gateway or queued in a live query.
int64_t PendingEvents(const Engine& engine, const IngestGateway& gateway) {
  int64_t total = gateway.TotalStagedEvents();
  for (const QueryFabric::LiveQuery& lq : engine.fabric().live()) {
    total += lq.query->QueuedEvents();
  }
  return total;
}

}  // namespace

void ServeIngest(Engine* engine, IngestServer* server,
                 const IngestGateway& gateway,
                 CheckpointCoordinator* coordinator, TimeMicros duration,
                 bool lockstep, const std::function<bool()>& each_iteration) {
  const DurationMicros cycle = engine->config().cycle_length;
  const auto poll = [&](int timeout_ms) {
    if (coordinator != nullptr) coordinator->DeliverDurableEpochs();
    server->PollOnce(timeout_ms);
  };
  const int64_t wall_start = WallMicros();
  while (engine->now() < duration) {
    const bool hold = each_iteration != nullptr && each_iteration();
    if (lockstep) {
      // Run only through prefixes every stream has fully delivered, so
      // results are independent of network timing.
      TimeMicros safe = engine->now();
      if (!hold) {
        safe = gateway.AllStreamsFinished()
                   ? std::numeric_limits<TimeMicros>::max()
                   : gateway.MinStagedThrough();
      }
      if (safe >= duration) {
        // A cycle per iteration, so `each_iteration` keeps running.
        engine->RunUntil(std::min(duration, engine->now() + cycle));
      } else if (engine->now() + cycle <= safe) {
        engine->RunUntil(engine->now() + cycle);
      } else {
        poll(10);
      }
    } else {
      const TimeMicros elapsed = WallMicros() - wall_start;
      if (elapsed >= duration) {
        engine->RunUntil(duration);  // final (possibly partial) step
      } else if (engine->now() + cycle <= elapsed) {
        engine->RunUntil(elapsed);
      } else {
        poll(static_cast<int>((cycle - (elapsed - engine->now())) / 1000 + 1));
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
      const bool pending = PendingEvents(*engine, gateway) > 0;
      if (!pending && server->num_connections() == 0) break;
      if (each_iteration != nullptr) each_iteration();
      if (pending) {
        // Paced clients may still be flushing their post-duration delay
        // tail; keep reading so it lands in the drain instead of in flight.
        if (server->num_connections() > 0) server->PollOnce(0);
        engine->RunUntil(engine->now() + cycle);
        idle_since = -1;
      } else {
        const int64_t wall = WallMicros();
        if (idle_since < 0) idle_since = wall;
        if (wall - idle_since >= kGoodbyeWait) break;
        poll(10);
      }
    }
  }
  if (coordinator != nullptr) coordinator->Flush();
  server->Stop();
}

}  // namespace klink
