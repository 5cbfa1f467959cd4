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

/// Identifier of a deployed query within an engine: its attach index in
/// the query fabric (runtime/query_fabric.h). Ids are never reused, so a
/// fixed up-front set gets the dense ids 0..n-1 and a retired id keeps
/// naming the retired query.
using QueryId = int32_t;

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
