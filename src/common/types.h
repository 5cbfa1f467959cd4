#ifndef KLINK_COMMON_TYPES_H_
#define KLINK_COMMON_TYPES_H_

#include <cstdint>

namespace klink {

/// Virtual time in microseconds. All engine time (event time, ingestion
/// time, processing time) is expressed in TimeMicros on a single simulated
/// clock; see runtime/sim_clock.h.
using TimeMicros = int64_t;

/// Duration in microseconds of virtual time.
using DurationMicros = int64_t;

/// Identifier of a deployed query within an engine. Generation-stamped by
/// the query fabric (runtime/query_fabric.h): the low kQuerySlotBits hold
/// the fabric slot, the bits above hold the slot's reuse generation, so an
/// id is never reused across the lifetime of an engine — a stale id held
/// after detach can be detected instead of silently aliasing a newer
/// tenant. Generation 0 leaves the id equal to the slot, so a fixed
/// up-front query set sees the same dense ids 0..n-1 as before the fabric
/// existed.
using QueryId = int32_t;

/// Bit split of a QueryId: slot in the low bits, generation above.
inline constexpr int kQuerySlotBits = 18;
inline constexpr QueryId kQuerySlotMask = (1 << kQuerySlotBits) - 1;
/// Generations representable per slot before the id space of an engine is
/// exhausted (int32 sign bit stays clear).
inline constexpr int32_t kMaxQueryGeneration = (1 << (31 - kQuerySlotBits)) - 1;

constexpr QueryId MakeQueryId(int32_t slot, int32_t generation) {
  return (generation << kQuerySlotBits) | slot;
}
constexpr int32_t QuerySlot(QueryId id) { return id & kQuerySlotMask; }
constexpr int32_t QueryGeneration(QueryId id) {
  return id >> kQuerySlotBits;
}

/// Identifier of an operator within a query (topological position).
using OperatorId = int32_t;

/// Identifier of a compute node in a distributed deployment.
using NodeId = int32_t;

/// Sentinel for "no time" / "unknown time".
inline constexpr TimeMicros kNoTime = -1;

/// Converts whole milliseconds to TimeMicros.
constexpr TimeMicros MillisToMicros(int64_t ms) { return ms * 1000; }

/// Converts whole seconds to TimeMicros.
constexpr TimeMicros SecondsToMicros(int64_t s) { return s * 1000 * 1000; }

/// Converts TimeMicros to fractional seconds (for reporting only).
constexpr double MicrosToSeconds(TimeMicros us) {
  return static_cast<double>(us) / 1e6;
}

}  // namespace klink

#endif  // KLINK_COMMON_TYPES_H_
