// The three workloads. Each runs in its own harness process, takes its seed
// from the command line and reports its end-to-end metrics (untraced run)
// or its per-layer metrics (traced run).

#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>

#include "client.h"
#include "common.h"
#include "storage/buffer_pool.h"

namespace perfbench {

struct Report {
  /// Every checked answer matched its reference.
  bool correct = true;
  uint64_t attempted = 0;
  /// Refused, errored, truncated, or different from the reference.
  uint64_t failed = 0;
  Metrics metrics;
};

/// Top-k size of every query.
inline constexpr size_t kK = 10;

Report RunServeRam(const RunArgs& args);
Report RunServePaged(const RunArgs& args);
Report RunKnnPaged(const RunArgs& args);

/// Per-layer metric values by name, as a workload measured them.
using LayerValues = std::map<std::string, double>;

/// Adds every per-layer metric, in one fixed order with its unit, to
/// `metrics`. A metric of a layer the workload bypasses reads 0, so every
/// traced run prints the same set.
void AddLayerMetrics(const LayerValues& values, Metrics* metrics);

/// Per-layer values every workload measures the same way: the tracing
/// overhead (closed-loop p50 of traced minus untraced segments) and the
/// open-loop generator's lag and tail.
void AddClientLayerValues(const std::vector<double>& untraced_closed_ms,
                          const std::vector<double>& traced_closed_ms,
                          const std::vector<double>& open_lag_ms,
                          const std::vector<double>& open_ms, LayerValues* v);

/// Buffer-pool figures from the pool's counters before and after the load.
void AddPoolLayerValues(const fuzzydb::storage::BufferPoolStats& before,
                        const fuzzydb::storage::BufferPoolStats& after,
                        uint64_t queries, LayerValues* v);

/// Prints where a run's time and memory went, to standard error.
void LogRun(double setup_s, double setup_rss_mb, double peak_rss_mb,
            double load_s, double check_s);

/// Adds the end-to-end metrics every workload reports, and prints the
/// sample counts and per-window figures behind them on a diagnostic line.
void ReportEndToEnd(const ClosedFigures& closed,
                    const std::vector<double>& open_latencies_ms,
                    double setup_s, double peak_rss_mb, Metrics* metrics);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
