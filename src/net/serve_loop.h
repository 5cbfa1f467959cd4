#ifndef KLINK_NET_SERVE_LOOP_H_
#define KLINK_NET_SERVE_LOOP_H_

#include <functional>

#include "src/common/types.h"

namespace klink {

class CheckpointCoordinator;
class Engine;
class IngestGateway;
class IngestServer;

/// How long, in wall time, a lockstep drain with nothing left to run waits
/// for open connections to say goodbye before it closes them.
inline constexpr DurationMicros kGoodbyeWait = SecondsToMicros(2);

/// The listen-mode serve loop: runs `engine` against what a started
/// `server` stages into `gateway` until virtual time reaches `duration`,
/// then persists and acks every aligned epoch (`coordinator` may be null)
/// and stops the server.
///
/// Two threads: an I/O thread, started here, polls the server for the
/// whole serve, drain included (accept, read, decode, credit and sequence
/// checks, staging); the calling thread, the engine thread, runs cycles.
/// Each engine iteration answers a pending dynamic-attach request (the
/// server's hook runs here, on the engine thread), calls `each_iteration`
/// (may be null), then advances virtual time or, when it may not advance
/// yet, delivers durable-epoch acks and waits for the next arrival.
///  - lockstep: a cycle runs once the gateway's arrival frontier covers
///    its end, or once every stream has finished; virtual time holds while
///    `each_iteration` returns true. Past `duration` the run drains until
///    no connection is open and nothing is staged or queued (at most 60 s
///    of virtual time more), so runs of one stream compare over their
///    complete output. Virtual time advances only while something is
///    staged or queued; open connections that send nothing are waited for
///    up to kGoodbyeWait of wall time before the server closes them.
///  - real time: virtual time tracks the wall clock; no drain.
void ServeIngest(Engine* engine, IngestServer* server, IngestGateway* gateway,
                 CheckpointCoordinator* coordinator, TimeMicros duration,
                 bool lockstep, const std::function<bool()>& each_iteration);

}  // namespace klink

#endif  // KLINK_NET_SERVE_LOOP_H_
