// The benchmark's metric catalogue: every end-to-end and per-layer metric
// with its unit, in the order the harness prints them. BENCHMARK.json lists
// the same names and units; the self-test checks that the two agree.

#include <cstdio>
#include <utility>

#include "workloads.h"

namespace perfbench {

void ReportEndToEnd(const ClosedFigures& closed,
                    const std::vector<double>& open_latencies_ms,
                    double setup_s, double peak_rss_mb, Metrics* metrics) {
  metrics->Add("throughput_qps", closed.throughput_qps, "1/s");
  metrics->Add("p50_ms", closed.p50_ms, "ms");
  metrics->Add("p99_ms", closed.p99_ms, "ms");
  metrics->Add("open_p50_ms", Median(open_latencies_ms), "ms");
  metrics->Add("setup_s", setup_s, "s");
  metrics->Add("peak_rss_mb", peak_rss_mb, "MB");
  std::printf("samples: closed=%zu open=%zu; closed windows qps=[",
              closed.samples, open_latencies_ms.size());
  for (double q : closed.window_qps) std::printf(" %.1f", q);
  std::printf(" ]\n");
}

void AddClientLayerValues(const std::vector<double>& untraced_closed_ms,
                          const std::vector<double>& traced_closed_ms,
                          const std::vector<double>& open_lag_ms,
                          const std::vector<double>& open_ms, LayerValues* v) {
  const double untraced = Median(untraced_closed_ms);
  const double traced = Median(traced_closed_ms);
  (*v)["trace.untraced_p50_ms"] = untraced;
  (*v)["trace.traced_p50_ms"] = traced;
  (*v)["trace.overhead_ms"] = traced - untraced;
  (*v)["client.lag_p99_ms"] = Percentile(open_lag_ms, 0.99);
  (*v)["client.open_p99_ms"] = Percentile(open_ms, 0.99);
}

void AddPoolLayerValues(const fuzzydb::storage::BufferPoolStats& before,
                        const fuzzydb::storage::BufferPoolStats& after,
                        uint64_t queries, LayerValues* v) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  const double q = static_cast<double>(queries);
  (*v)["storage.pool_hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
  (*v)["storage.evictions_per_query"] =
      static_cast<double>(after.evictions - before.evictions) / q;
  (*v)["storage.disk_mb_per_query"] =
      static_cast<double>(after.bytes_read_disk - before.bytes_read_disk) /
      1e6 / q;
}

void LogRun(double setup_s, double setup_rss_mb, double peak_rss_mb,
            double load_s, double check_s) {
  std::fprintf(stderr,
               "perfbench: set-up %.3f s (median of %d), load %.3f s, "
               "reference check %.3f s; peak RSS %.1f MB after set-up, "
               "%.1f MB after load\n",
               setup_s, kSetupReps, load_s, check_s, setup_rss_mb, peak_rss_mb);
}

void AddLayerMetrics(const LayerValues& values, Metrics* metrics) {
  static const std::pair<const char*, const char*> kLayerMetrics[] = {
      {"client.lag_p99_ms", "ms"},
      {"client.open_p99_ms", "ms"},
      {"server.submit_ms", "ms"},
      {"server.submit_self_ms", "ms"},
      {"server.queue_ms", "ms"},
      {"server.exec_ms", "ms"},
      {"server.cache_hit_ratio", "ratio"},
      {"server.hit_build_share", "ratio"},
      {"server.reject_share", "ratio"},
      {"middleware.sorted_per_query", "count"},
      {"middleware.random_per_query", "count"},
      {"middleware.prefix_used", "ratio"},
      {"middleware.plan_share.fagin-a0", "ratio"},
      {"middleware.plan_share.ta", "ratio"},
      {"middleware.plan_share.max-shortcut", "ratio"},
      {"image.color_build_ms", "ms"},
      {"image.texture_build_ms", "ms"},
      {"image.build_contention", "ratio"},
      {"image.cascade_refined_ratio", "ratio"},
      {"image.cascade_bytes_per_query", "bytes"},
      {"image.exact_knn_ms", "ms"},
      {"storage.cascade_ms", "ms"},
      {"storage.paged_source_build_ms", "ms"},
      {"storage.pool_hit_ratio", "ratio"},
      {"storage.evictions_per_query", "count"},
      {"storage.disk_mb_per_query", "MB"},
      {"storage.ingest_rows_per_s", "1/s"},
      {"storage.open_ms", "ms"},
      {"trace.untraced_p50_ms", "ms"},
      {"trace.traced_p50_ms", "ms"},
      {"trace.overhead_ms", "ms"},
  };
  for (const auto& [name, unit] : kLayerMetrics) {
    auto it = values.find(name);
    metrics->Add(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

}  // namespace perfbench
