#include "src/harness/reporter.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/klink/klink_policy.h"
#include "src/operators/exchange_operator.h"
#include "src/query/query.h"
#include "src/runtime/engine.h"

namespace klink {

TableReporter::TableReporter(std::string title) : title_(std::move(title)) {}

void TableReporter::SetHeader(std::vector<std::string> header) {
  header_ = std::move(header);
}

void TableReporter::AddRow(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

void TableReporter::Print() const {
  std::printf("\n== %s ==\n", title_.c_str());
  // Column widths over header + rows.
  std::vector<size_t> width(header_.size(), 0);
  auto widen = [&width](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i >= width.size()) width.resize(i + 1, 0);
      width[i] = std::max(width[i], row[i].size());
    }
  };
  widen(header_);
  for (const auto& row : rows_) widen(row);

  auto print_row = [&width](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      std::printf("%-*s  ", static_cast<int>(width[i]), row[i].c_str());
    }
    std::printf("\n");
  };
  if (!header_.empty()) {
    print_row(header_);
    size_t total = 0;
    for (size_t w : width) total += w + 2;
    std::string rule(total, '-');
    std::printf("%s\n", rule.c_str());
  }
  for (const auto& row : rows_) print_row(row);
  std::fflush(stdout);

  // Harness shutdown path, single-threaded by construction.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* dir = std::getenv("KLINK_BENCH_CSV_DIR")) {
    std::string slug;
    for (char ch : title_) {
      if (std::isalnum(static_cast<unsigned char>(ch))) {
        slug += static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
      } else if (!slug.empty() && slug.back() != '_') {
        slug += '_';
      }
    }
    while (!slug.empty() && slug.back() == '_') slug.pop_back();
    WriteCsv(std::string(dir) + "/" + slug + ".csv");
  }
}

bool TableReporter::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  auto write_row = [f](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      std::fprintf(f, "%s%s", i == 0 ? "" : ",", row[i].c_str());
    }
    std::fprintf(f, "\n");
  };
  if (!header_.empty()) write_row(header_);
  for (const auto& row : rows_) write_row(row);
  std::fclose(f);
  return true;
}

std::string TableReporter::Num(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

void PrintIngestMetrics(const IngestMetrics& metrics) {
  TableReporter totals("Ingest");
  totals.SetHeader({"metric", "value"});
  totals.AddRow({"connections accepted",
                 std::to_string(metrics.connections_accepted())});
  totals.AddRow({"connections closed",
                 std::to_string(metrics.connections_closed())});
  totals.AddRow({"idle timeouts", std::to_string(metrics.idle_timeouts())});
  totals.AddRow({"frames decoded", std::to_string(metrics.frames_decoded())});
  totals.AddRow({"malformed frames",
                 std::to_string(metrics.malformed_frames())});
  totals.AddRow({"bytes read",
                 std::to_string(metrics.bytes_read())});
  totals.AddRow({"backpressure stalls",
                 std::to_string(metrics.TotalStalls())});
  totals.AddRow({"backpressure stall time (ms)",
                 TableReporter::Num(
                     static_cast<double>(metrics.TotalStallMicros()) / 1e3,
                     1)});
  totals.Print();

  if (metrics.streams().empty()) return;
  TableReporter streams("Ingest streams");
  streams.SetHeader({"stream", "frames", "data events", "wire bytes",
                     "stalls", "stall (ms)", "peak staged (KB)"});
  for (const auto& [id, s] : metrics.streams()) {
    streams.AddRow(
        {std::to_string(id), std::to_string(s.frames),
         std::to_string(s.data_events), std::to_string(s.bytes),
         std::to_string(s.backpressure_stalls),
         TableReporter::Num(static_cast<double>(s.stall_micros) / 1e3, 1),
         TableReporter::Num(
             static_cast<double>(s.peak_staged_bytes) / 1024.0, 1)});
  }
  streams.Print();
}

std::string WindowCell(const Histogram& latency, double value, int precision) {
  return latency.count() > 0 ? TableReporter::Num(value, precision)
                             : "n/a (no completed windows)";
}

void PrintShardMetrics(Engine& engine, QueryId id) {
  const Query& q = engine.query(id);
  if (!q.sharded()) return;
  const Query::ShardRegion& region = q.shard_region();
  const auto* partition = static_cast<const PartitionExchangeOperator*>(
      &q.op(region.partition_op));
  const auto* klink = dynamic_cast<const KlinkPolicy*>(&engine.policy());
  TableReporter table("Per-shard metrics (query " + std::to_string(id) +
                      ", " + std::to_string(partition->active_shards()) + "/" +
                      std::to_string(region.max_shards) + " shards active)");
  table.SetHeader({"shard", "active", "events drained", "state bytes",
                   "wm lag (ms)", "slack (ms)"});
  for (int s = 0; s < region.max_shards; ++s) {
    const Operator& op = q.op(region.shard_begin + s);
    const TimeMicros wm = op.MinWatermark();
    const std::string lag =
        wm == kNoTime ? "-"
                      : TableReporter::Num(
                            static_cast<double>(engine.now() - wm) / 1e3, 1);
    // Shard s is lane 1 + s: lanes are {stage-0 prefix, shards..., suffix}.
    const std::string slack =
        klink == nullptr
            ? "-"
            : TableReporter::Num(klink->LastSlack(id, 1 + s) / 1e3, 1);
    table.AddRow({std::to_string(s),
                  s < partition->active_shards() ? "yes" : "no",
                  std::to_string(op.processed_data_count()),
                  std::to_string(op.StateBytes()), lag, slack});
  }
  table.Print();
}

void PrintLateEventMetrics(
    const Engine& engine, const std::vector<std::pair<int, QueryId>>& tenants) {
  TableReporter table("Late-data accounting (allowed lateness)");
  table.SetHeader({"query", "late accepted", "late dropped", "retractions",
                   "updates", "sink retracted", "unmatched"});
  // Only print when some query actually saw late data or corrections:
  // lateness-disabled runs keep their report output unchanged.
  bool any = false;
  for (const auto& [tenant, id] : tenants) {
    const QueryLateMetrics m = CollectQueryLateMetrics(engine.query(id));
    any = any || m.late_accepted != 0 || m.late_dropped_beyond_horizon != 0 ||
          m.retractions_emitted != 0 || m.updates_emitted != 0 ||
          m.retractions_received != 0 || m.unmatched_retractions != 0;
    table.AddRow({std::to_string(tenant), std::to_string(m.late_accepted),
                  std::to_string(m.late_dropped_beyond_horizon),
                  std::to_string(m.retractions_emitted),
                  std::to_string(m.updates_emitted),
                  std::to_string(m.retractions_received),
                  std::to_string(m.unmatched_retractions)});
  }
  if (any) table.Print();
}

}  // namespace klink
