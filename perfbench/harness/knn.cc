// knn_paged: colour kNN (k = 10) through PagedEmbeddingStore::CascadeKnn
// with the RAM-resident int8 tier on, over a column file several times
// larger than its buffer pool. Each client calls the store directly; the
// server and middleware are bypassed.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "client.h"
#include "common.h"
#include "common/thread_pool.h"
#include "storage/column_file.h"
#include "storage/paged_store.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using fuzzydb::CascadeStats;
using fuzzydb::Rng;
using fuzzydb::storage::BufferPoolStats;
using fuzzydb::storage::PagedEmbeddingStore;
using Neighbors = std::vector<std::pair<size_t, double>>;

// ---- Frozen workload constants ----------------------------------------

// 150k rows x 64 dims is a 77 MB file, 6.4x its 12 MB pool. (400k rows
// behind 32 MB run at ~13 qps per client on a 4-core VM: too few
// closed-loop samples for a p99 within one run.)
struct KnnConfig {
  size_t n = 150'000;
  size_t dim = 64;
  size_t pool_bytes = 12'000'000;
  size_t targets = 2'000;           ///< Distinct targets the Zipf draw ranks.
  double open_rate_qps = 27.0;
};

KnnConfig MakeConfig(const std::string& scale) {
  KnnConfig c;
  if (scale == "tiny") {
    c.n = 20'000;
    c.pool_bytes = 1'600'000;
    c.targets = 200;
    c.open_rate_qps = 60.0;
  }
  return c;
}

struct Record {
  size_t target = 0;
  bool traced = false;
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  int64_t end_ns = 0;
  bool ok = false;  ///< The call returned OK (answer checked later).
  Neighbors answer;
  CascadeStats stats;
};

void CallCascade(const PagedEmbeddingStore& store,
                 const std::vector<std::vector<double>>& targets, Record* rec) {
  fuzzydb::CascadeOptions options;
  options.use_quantized = true;
  rec->send_ns = NowNs();
  auto result =
      store.CascadeKnn(targets[rec->target], kK, options, &rec->stats);
  rec->end_ns = NowNs();
  if (!result.ok()) return;
  rec->ok = true;
  rec->answer = std::move(result).value();
}

}  // namespace

Report RunKnnPaged(const RunArgs& args) {
  const KnnConfig cfg = MakeConfig(args.scale);
  const std::string path = args.scratch + "/knn_paged.col";
  const std::vector<double> spectrum = Spectrum(cfg.dim);

  RemoveAtExit(path);
  PagedSetup setup = SetUpPagedStore(path, cfg.n, cfg.dim, cfg.pool_bytes,
                                     args.seed * 0x9E3779B97F4A7C15ull + 3);
  const PagedEmbeddingStore* store = setup.store.get();

  Rng rng(args.seed * 0x9E3779B97F4A7C15ull + 7);
  std::vector<std::vector<double>> targets(cfg.targets,
                                           std::vector<double>(cfg.dim));
  for (auto& t : targets) SyntheticRow(&rng, spectrum, t);
  auto draw = [&](size_t count) {
    std::vector<Record> records(count);
    for (Record& r : records) r.target = rng.NextZipf(cfg.targets, 1.0) - 1;
    return records;
  };
  const LoadPlan plan = MakeLoadPlan(args.seconds, cfg.open_rate_qps, &rng);
  // Far more requests than the closed loop can send; it stops on the clock.
  std::vector<Record> closed =
      draw(static_cast<size_t>(args.seconds * kClosedShare * 2000) + 64);
  std::vector<Record> open = draw(OpenRequests(plan));

  const double setup_rss_mb = PeakRssMb();
  const int64_t phases_start = NowNs();
  const BufferPoolStats pool_before = store->pool_stats();
  const LoadResult load = RunLoad(
      plan, closed.size(),
      [&](size_t i, size_t cycle) {
        Record* rec = &closed[i];
        rec->traced = args.trace && (cycle == 1 || cycle == 2);
        CallCascade(*store, targets, rec);
      },
      [&](size_t i, int64_t due_ns) {
        Record* rec = &open[i];
        rec->traced = args.trace;
        rec->due_ns = due_ns;
        CallCascade(*store, targets, rec);
      },
      [] {});
  closed.resize(load.closed_started);
  const BufferPoolStats pool_after = store->pool_stats();
  const double peak_rss_mb = PeakRssMb();
  const int64_t check_start = NowNs();

  // Outside the timed phases: every answer against ExactKnn of its target.
  Report report;
  std::map<size_t, Neighbors> refs;
  std::vector<double> exact_ms;
  auto check = [&](std::vector<Record>* records, bool perturb) {
    for (size_t i = 0; i < records->size(); ++i) {
      Record& rec = (*records)[i];
      auto it = refs.find(rec.target);
      if (it == refs.end()) {
        const int64_t t0 = NowNs();
        Neighbors exact =
            Checked(store->ExactKnn(targets[rec.target], kK,
                                    fuzzydb::ThreadPool::Shared()),
                    "reference");
        exact_ms.push_back(NsToMs(NowNs() - t0));
        it = refs.emplace(rec.target, std::move(exact)).first;
      }
      Neighbors expected = it->second;
      if (perturb && i == 0 && !expected.empty()) {
        expected[0].second = std::nextafter(expected[0].second, 1e300);
      }
      if (rec.ok && rec.answer != expected && report.failed == 0) {
        std::fprintf(stderr, "perfbench: first failure: answer differs from "
                             "ExactKnn\n");
      }
      rec.ok = rec.ok && rec.answer == expected;
      if (!rec.ok) ++report.failed;
    }
  };
  check(&closed, args.perturb_reference);
  check(&open, false);
  report.attempted = closed.size() + open.size();
  report.correct = report.failed == 0;
  LogRun(setup.setup_s, setup_rss_mb, peak_rss_mb,
         NsToMs(check_start - phases_start) / 1e3,
         NsToMs(NowNs() - check_start) / 1e3);

  // Correct completions; traced: -1 all, 0 untraced only, 1 traced only.
  // Closed-loop records after the warm-up; no latency metric counts those
  // before.
  const std::span<const Record> timed_closed =
      std::span<const Record>(closed).subspan(load.closed_first);
  auto samples = [](std::span<const Record> records, bool open_loop,
                    int traced) {
    std::vector<Sample> out;
    for (const Record& rec : records) {
      if (!rec.ok || (traced >= 0 && rec.traced != (traced == 1))) continue;
      out.push_back({open_loop ? rec.due_ns : rec.send_ns, rec.end_ns});
    }
    return out;
  };
  auto latencies = [&](std::span<const Record> records, bool open_loop,
                       int traced) {
    return LatenciesMs(samples(records, open_loop, traced));
  };

  if (!args.trace) {
    const ClosedFigures fig =
        SummarizeClosed(samples(timed_closed, false, -1),
                        load.closed_segments);
    ReportEndToEnd(fig, latencies(open, true, -1), setup.setup_s, peak_rss_mb,
                   &report.metrics);
  } else {
    Trace trace;
    const uint64_t closed_end = closed.size();
    for (const std::vector<Record>* records : {&closed, &open}) {
      const bool open_loop = records == &open;
      for (size_t i = 0; i < records->size(); ++i) {
        const Record& rec = (*records)[i];
        if (!rec.traced || !rec.ok) continue;
        const uint64_t id = (open_loop ? closed_end : 0) + i;
        const int64_t root = trace.Add(
            "client.request", open_loop ? rec.due_ns : rec.send_ns, rec.end_ns,
            -1, id);
        if (open_loop) {
          trace.Add("client.lag", rec.due_ns, rec.send_ns, root, id);
        }
        trace.Add("storage.cascade", rec.send_ns, rec.end_ns, root, id);
      }
    }
    LayerValues v;
    std::vector<double> lag;
    for (const Record& rec : open) {
      lag.push_back(NsToMs(rec.send_ns - rec.due_ns));
    }
    AddClientLayerValues(latencies(timed_closed, false, 0),
                         latencies(timed_closed, false, 1), lag,
                         latencies(open, true, -1), &v);
    v["storage.cascade_ms"] =
        Median(trace.DurationsMs("storage.cascade", 0, closed_end));

    std::vector<double> refined, bytes;
    for (const std::vector<Record>* records : {&closed, &open}) {
      for (const Record& rec : *records) {
        refined.push_back(static_cast<double>(rec.stats.candidates_refined) /
                          static_cast<double>(cfg.n));
        bytes.push_back(static_cast<double>(rec.stats.bytes_scanned_quantized +
                                            rec.stats.bytes_scanned_prefix +
                                            rec.stats.bytes_scanned_refine));
      }
    }
    v["image.cascade_refined_ratio"] = Mean(refined);
    v["image.cascade_bytes_per_query"] = Mean(bytes);
    v["image.exact_knn_ms"] = Median(exact_ms);

    AddPoolLayerValues(pool_before, pool_after, report.attempted, &v);
    v["storage.ingest_rows_per_s"] = setup.ingest_rows_per_s;
    v["storage.open_ms"] = setup.open_ms;
    AddLayerMetrics(v, &report.metrics);
    if (!trace.Write(args.scratch + "/spans.json", HostFactsJson())) {
      std::fprintf(stderr, "perfbench: could not write spans\n");
    }
  }
  setup.store.reset();
  std::remove(path.c_str());
  return report;
}

}  // namespace perfbench
