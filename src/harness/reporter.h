#ifndef KLINK_HARNESS_REPORTER_H_
#define KLINK_HARNESS_REPORTER_H_

#include <string>
#include <utility>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/types.h"
#include "src/runtime/metrics.h"

namespace klink {

class Engine;

/// Minimal fixed-width table printer for the bench harnesses: every bench
/// binary prints the same rows/series the corresponding paper figure
/// reports, so runs are easy to diff against EXPERIMENTS.md.
class TableReporter {
 public:
  /// `title` is printed above the table (e.g. "Fig. 6a: YSB mean latency").
  explicit TableReporter(std::string title);

  /// Sets the column headers; call before AddRow.
  void SetHeader(std::vector<std::string> header);

  /// Adds one row; cells are preformatted strings.
  void AddRow(std::vector<std::string> row);

  /// Prints the table to stdout. When the KLINK_BENCH_CSV_DIR environment
  /// variable is set, also writes <dir>/<slug(title)>.csv for plotting.
  void Print() const;

  /// Writes the table as CSV to `path`. Returns false on I/O failure.
  bool WriteCsv(const std::string& path) const;

  /// Formats a double with `precision` decimals.
  static std::string Num(double value, int precision = 2);

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a cell derived from SWM latency (a latency or a slowdown) of a
/// run whose merged SWM latency histogram is `latency`: the value with
/// `precision` decimals, or "n/a (no completed windows)" when the histogram
/// is empty, because its zeros would read as perfect latency.
std::string WindowCell(const Histogram& latency, double value, int precision);

/// Prints the TCP ingest counters (connections, frames, bytes, malformed
/// frames) plus one row per ingest stream (frames, data events, wire
/// bytes, backpressure stalls and stall time, peak staged bytes). Used by
/// klink_run --listen after a networked run.
void PrintIngestMetrics(const IngestMetrics& metrics);

/// Prints one row per shard of a sharded query (no-op for unsharded
/// queries): activity, events drained, keyed-state bytes, watermark lag
/// behind the engine clock, and — when the engine runs a Klink policy —
/// the shard lane's last evaluated slack. Used by klink_run --shards and
/// the shard benches to make skew and re-shards visible.
void PrintShardMetrics(Engine& engine, QueryId id);

/// Prints the late-data accounting of every (tenant index, query id) in
/// `tenants`, one row per tenant labelled with its index, in the given
/// order; a detached tenant's query keeps its row. A row holds the late
/// events accepted within the lateness horizon, late events dropped beyond
/// it, retraction/update elements emitted by windowed operators, and
/// retractions absorbed (or unmatched) at the sink. Prints nothing when
/// every counter is zero, so lateness-disabled runs keep their output
/// unchanged. Used by klink_run --listen.
void PrintLateEventMetrics(const Engine& engine,
                           const std::vector<std::pair<int, QueryId>>& tenants);

}  // namespace klink

#endif  // KLINK_HARNESS_REPORTER_H_
