// serve_ram and serve_paged: fuzzy top-k queries ("near A AND/OR/weighted
// near B") served by a QueryServer on a 3-executor ThreadPool, each atom
// resolved to a source the resolver builds on its first call. serve_ram
// grades a RAM ImageStore (QbicColorSource x QbicTextureSource);
// serve_paged grades one column file through a buffer pool
// (PagedColorSource x PagedColorSource).

#include <algorithm>
#include <list>
#include <tuple>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "client.h"
#include "common.h"
#include "common/thread_pool.h"
#include "image/image_store.h"
#include "image/qbic_source.h"
#include "middleware/optimizer.h"
#include "server/query_server.h"
#include "storage/column_file.h"
#include "storage/paged_source.h"
#include "storage/paged_store.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using fuzzydb::Algorithm;
using fuzzydb::ExecutionResult;
using fuzzydb::GradedSource;
using fuzzydb::Query;
using fuzzydb::QueryPtr;
using fuzzydb::Result;
using fuzzydb::Rng;
using fuzzydb::ServedResult;
using fuzzydb::Status;

// ---- Frozen workload constants ----------------------------------------

// Requests draw their target pair Zipf(kZipfS) from a fixed list of
// distinct pairs. The exponent and list sizes put 20-30% of each run's
// requests on a cache key already served (the head repeats; the tail is
// mostly fresh).
constexpr double kZipfS = 0.8;

struct ServedConfig {
  size_t n = 0;              ///< Images (RAM) or rows (paged).
  size_t dim = 64;           ///< Paged rows: doubles per row.
  size_t pool_bytes = 0;     ///< Paged: buffer-pool budget.
  size_t color_targets = 0;
  size_t texture_targets = 0;  ///< RAM only.
  size_t pairs = 0;          ///< Target pairs the Zipf draw ranks.
  double open_rate_qps = 0;  ///< Open-loop arrival rate.
};

ServedConfig RamConfig(const std::string& scale) {
  ServedConfig c;
  c.n = 20'000;
  c.color_targets = 128;
  c.texture_targets = 128;
  c.pairs = 128 * 128;
  c.open_rate_qps = 72.0;
  if (scale == "tiny") {
    c.n = 1'000;
    c.open_rate_qps = 150.0;
  }
  return c;
}

ServedConfig PagedConfig(const std::string& scale) {
  ServedConfig c;
  // 50k rows x 64 dims is a 25.6 MB file, 6.4x its 4 MB pool. (100k rows
  // behind 8 MB run at ~20 qps per client on a 4-core VM: too few
  // closed-loop samples for a p99 within one run.)
  c.n = 50'000;
  c.pool_bytes = 4'000'000;
  c.color_targets = 96;
  c.pairs = 9'000;
  c.open_rate_qps = 31.0;
  if (scale == "tiny") {
    c.n = 4'000;
    c.pool_bytes = 1'000'000;
    c.open_rate_qps = 60.0;
  }
  return c;
}

// The query mix: 55% AND, 25% weighted AND (0.7/0.3), 20% OR. Half the
// AND/OR queries list their atoms in commuted order, which CanonicalKey
// maps to the same cache entry; weighted keys keep child order.
enum class Shape { kAnd = 0, kWeighted = 1, kOr = 2 };

struct Request {
  Shape shape = Shape::kAnd;
  size_t a = 0;  ///< Target index of the first atom.
  size_t b = 0;  ///< Target index of the second atom.
  bool commuted = false;
};

std::string RequestKey(const Request& r) {
  return std::to_string(static_cast<int>(r.shape)) + "|" +
         std::to_string(r.a) + "|" + std::to_string(r.b) + "|" +
         (r.commuted ? "1" : "0");
}

// ---- The subsystem behind the atoms ------------------------------------

class Catalog {
 public:
  virtual ~Catalog() = default;
  virtual size_t n() const = 0;
  virtual const char* attribute_a() const = 0;
  virtual const char* attribute_b() const = 0;
  /// Builds the source answering `atom`; `*span` names the layer call.
  virtual Result<std::unique_ptr<GradedSource>> Build(
      const Query& atom, const char** span) const = 0;
};

// An atom's target is the index into its attribute's target list.
size_t TargetIndex(const Query& atom) {
  return static_cast<size_t>(std::stoul(atom.target()));
}

class RamCatalog final : public Catalog {
 public:
  RamCatalog(const fuzzydb::ImageStore* store,
             std::vector<fuzzydb::Histogram> colors,
             std::vector<fuzzydb::TextureFeatures> textures)
      : store_(store), colors_(std::move(colors)),
        textures_(std::move(textures)) {}
  size_t n() const override { return store_->size(); }
  const char* attribute_a() const override { return "Color"; }
  const char* attribute_b() const override { return "Texture"; }
  Result<std::unique_ptr<GradedSource>> Build(
      const Query& atom, const char** span) const override {
    const size_t i = TargetIndex(atom);
    if (atom.attribute() == "Color") {
      *span = "image.color_build";
      auto src = fuzzydb::QbicColorSource::Create(store_, colors_[i]);
      if (!src.ok()) return src.status();
      return std::unique_ptr<GradedSource>(
          std::make_unique<fuzzydb::QbicColorSource>(std::move(src).value()));
    }
    *span = "image.texture_build";
    auto src = fuzzydb::QbicTextureSource::Create(store_, textures_[i]);
    if (!src.ok()) return src.status();
    return std::unique_ptr<GradedSource>(
        std::make_unique<fuzzydb::QbicTextureSource>(std::move(src).value()));
  }

 private:
  const fuzzydb::ImageStore* store_;
  std::vector<fuzzydb::Histogram> colors_;
  std::vector<fuzzydb::TextureFeatures> textures_;
};

class PagedCatalog final : public Catalog {
 public:
  PagedCatalog(const fuzzydb::storage::PagedEmbeddingStore* store,
               std::vector<std::vector<double>> targets, double max_distance)
      : store_(store), targets_(std::move(targets)),
        max_distance_(max_distance) {}
  size_t n() const override { return store_->size(); }
  const char* attribute_a() const override { return "Color"; }
  const char* attribute_b() const override { return "Color"; }
  Result<std::unique_ptr<GradedSource>> Build(
      const Query& atom, const char** span) const override {
    *span = "storage.paged_source_build";
    auto src = fuzzydb::storage::PagedColorSource::Create(
        store_, targets_[TargetIndex(atom)], max_distance_);
    if (!src.ok()) return src.status();
    return std::unique_ptr<GradedSource>(
        std::make_unique<fuzzydb::storage::PagedColorSource>(
            std::move(src).value()));
  }

 private:
  const fuzzydb::storage::PagedEmbeddingStore* store_;
  std::vector<std::vector<double>> targets_;
  double max_distance_;
};

QueryPtr MakeQuery(const Catalog& catalog, const Request& r) {
  QueryPtr a = Query::Atomic(catalog.attribute_a(), std::to_string(r.a));
  QueryPtr b = Query::Atomic(catalog.attribute_b(), std::to_string(r.b));
  switch (r.shape) {
    case Shape::kAnd:
      return r.commuted ? Query::And({b, a}) : Query::And({a, b});
    case Shape::kOr:
      return r.commuted ? Query::Or({b, a}) : Query::Or({a, b});
    case Shape::kWeighted: {
      auto theta = Checked(fuzzydb::Weighting::Create({0.7, 0.3}), "weights");
      return Checked(Query::WeightedAnd({a, b}, theta), "weighted query");
    }
  }
  return nullptr;
}

// ---- One served request ------------------------------------------------

struct Build {
  const char* span = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// What the client keeps about one request. The sources themselves live in
/// a QueryContext owned only by the resolver, so they are freed as soon as
/// the server drops the resolver after completing the ticket.
struct Record {
  Request request;
  bool traced = false;
  int64_t due_ns = 0;  ///< Open loop: scheduled send time.
  int64_t send_ns = 0;
  int64_t submit_return_ns = 0;
  Status submit_status;
  /// Held only until the request completes; see Collect.
  std::shared_ptr<fuzzydb::Ticket<ServedResult>> ticket;
  bool completed = false;
  ServedResult result;
  // Written by the resolver (client thread inside Submit, then one worker).
  std::mutex mu;
  std::vector<Build> builds;
  int64_t worker_first_ns = 0;
  size_t rows_ranked = 0;
};

class QueryContext {
 public:
  QueryContext(const Catalog* catalog, Record* record)
      : catalog_(catalog), record_(record),
        submit_thread_(std::this_thread::get_id()) {}

  Result<GradedSource*> Resolve(const Query& atom) {
    std::lock_guard<std::mutex> lock(record_->mu);
    if (std::this_thread::get_id() != submit_thread_ &&
        record_->worker_first_ns == 0) {
      record_->worker_first_ns = NowNs();
    }
    const std::string key = atom.attribute() + "~" + atom.target();
    for (auto& [k, src] : sources_) {
      if (k == key) return src.get();
    }
    Build build;
    build.start_ns = NowNs();
    auto src = catalog_->Build(atom, &build.span);
    build.end_ns = NowNs();
    if (!src.ok()) return src.status();
    record_->builds.push_back(build);
    record_->rows_ranked += (*src)->Size();
    sources_.emplace_back(key, std::move(src).value());
    return sources_.back().second.get();
  }

 private:
  const Catalog* catalog_;
  Record* record_;
  std::thread::id submit_thread_;
  std::vector<std::pair<std::string, std::unique_ptr<GradedSource>>> sources_;
};

void Send(fuzzydb::QueryServer* server, const Catalog& catalog, Record* rec) {
  auto ctx = std::make_shared<QueryContext>(&catalog, rec);
  QueryPtr query = MakeQuery(catalog, rec->request);
  rec->send_ns = NowNs();
  Result<fuzzydb::Submission> sub = server->Submit(
      std::move(query), kK,
      [ctx = std::move(ctx)](const Query& atom) { return ctx->Resolve(atom); });
  rec->submit_return_ns = NowNs();
  if (!sub.ok()) {
    rec->submit_status = sub.status();
    return;
  }
  rec->ticket = sub->ticket;
}

/// Waits for `rec`'s ticket, keeps a copy of its result and drops the
/// ticket. The copy holds exactly k items, while the served result may
/// carry a vector with room for every object the algorithm saw; keeping
/// thousands of tickets would make peak RSS grow with the run's length.
void Collect(Record* rec) {
  if (!rec->ticket) return;
  rec->result = rec->ticket->Wait();
  rec->ticket.reset();
  rec->completed = true;
}

// ---- References --------------------------------------------------------

/// Serial ExecuteTopK of each distinct request on sources the server never
/// saw, computed after the timed phases. Atom sources are built once and
/// restarted before every use; requests run sorted by target pair and the
/// source cache is LRU-bounded, so memory stays near one source per target.
class References {
 public:
  References(const Catalog* catalog, size_t max_sources)
      : catalog_(catalog), max_sources_(max_sources) {}

  /// Computes the reference of every distinct request in `requests`.
  void Compute(std::vector<Request> requests) {
    std::sort(requests.begin(), requests.end(),
              [](const Request& x, const Request& y) {
                return std::tie(x.a, x.b, x.shape, x.commuted) <
                       std::tie(y.a, y.b, y.shape, y.commuted);
              });
    for (const Request& r : requests) {
      const std::string key = RequestKey(r);
      if (memo_.count(key) == 0) memo_.emplace(key, Run(r));
    }
    sources_.clear();
    lru_.clear();
  }

  const ExecutionResult& Get(const Request& r) const {
    return memo_.at(RequestKey(r));
  }

 private:
  ExecutionResult Run(const Request& r) {
    QueryPtr query = MakeQuery(*catalog_, r);
    fuzzydb::PlanChoice plan = Checked(
        fuzzydb::ChoosePlan(*query, catalog_->n(), kK, fuzzydb::CostModel{}),
        "reference plan");
    fuzzydb::ExecutorOptions opts;
    opts.algorithm = plan.algorithm;
    opts.combined_period = plan.combined_period;
    auto resolver = [this](const Query& atom) -> Result<GradedSource*> {
      return Source(atom);
    };
    return Checked(fuzzydb::ExecuteTopK(query, resolver, kK, opts),
                   "reference");
  }

  Result<GradedSource*> Source(const Query& atom) {
    const std::string key = atom.attribute() + "~" + atom.target();
    auto found = sources_.find(key);
    if (found == sources_.end()) {
      if (sources_.size() >= max_sources_) {
        sources_.erase(lru_.back());
        lru_.pop_back();
      }
      const char* span = "";
      auto src = catalog_->Build(atom, &span);
      if (!src.ok()) return src.status();
      lru_.push_front(key);
      found =
          sources_.emplace(key, Cached{std::move(src).value(), lru_.begin()})
              .first;
    } else {
      lru_.splice(lru_.begin(), lru_, found->second.lru);
    }
    found->second.source->RestartSorted();
    return found->second.source.get();
  }

  struct Cached {
    std::unique_ptr<GradedSource> source;
    std::list<std::string>::iterator lru;
  };
  const Catalog* catalog_;
  const size_t max_sources_;
  std::map<std::string, ExecutionResult> memo_;
  std::map<std::string, Cached> sources_;
  std::list<std::string> lru_;  ///< Front = most recently used.
};

/// The E22 rule: ids, grades and access counts bit-identical.
bool Matches(const fuzzydb::TopKResult& got, const fuzzydb::TopKResult& ref) {
  return got.items == ref.items && got.cost.sorted == ref.cost.sorted &&
         got.cost.random == ref.cost.random;
}

// ---- The run -----------------------------------------------------------

struct Phase {
  std::vector<std::unique_ptr<Record>> records;
  /// Records before this one are the closed loop's warm-up; no latency
  /// metric counts them.
  size_t timed_first = 0;
  fuzzydb::ServerStats server;
  fuzzydb::CacheStats cache;
};

struct Workload {
  const Catalog* catalog = nullptr;
  std::vector<Request> closed_requests;
  std::vector<Request> open_requests;
  /// serve_ram: colour + texture build time, ms, unloaded, taken before
  /// the load.
  double solo_build_ms = 0.0;
  const fuzzydb::storage::PagedEmbeddingStore* paged = nullptr;
};

std::vector<Request> MakeRequests(
    size_t count, const ServedConfig& cfg,
    const std::vector<std::pair<size_t, size_t>>& pairs, Rng* rng) {
  std::vector<Request> out(count);
  for (Request& r : out) {
    const double u = rng->NextDouble();
    r.shape = u < 0.55   ? Shape::kAnd
              : u < 0.80 ? Shape::kWeighted
                         : Shape::kOr;
    const auto& pair = pairs[rng->NextZipf(cfg.pairs, kZipfS) - 1];
    r.a = pair.first;
    r.b = pair.second;
    r.commuted = r.shape != Shape::kWeighted && rng->NextBernoulli(0.5);
  }
  return out;
}

/// Runs the load: closed-loop requests go to one server and open-loop
/// requests to another, both on one 3-executor pool, so each loop keeps
/// its own result cache across its segments.
LoadResult RunPhases(const Workload& w, const LoadPlan& plan, bool trace,
                     Phase* closed, Phase* open) {
  fuzzydb::ThreadPool pool(3, 64);
  fuzzydb::QueryServerOptions options;
  options.pool = &pool;
  fuzzydb::QueryServer closed_server(options);
  fuzzydb::QueryServer open_server(options);
  // Records are made when a client claims the request: the closed loop's
  // request list is far longer than any run sends.
  closed->records.resize(w.closed_requests.size());
  open->records.resize(w.open_requests.size());
  auto make = [](std::unique_ptr<Record>* slot, const Request& request) {
    *slot = std::make_unique<Record>();
    (*slot)->request = request;
    return slot->get();
  };
  const LoadResult load = RunLoad(
      plan, closed->records.size(),
      [&](size_t i, size_t cycle) {
        Record* rec = make(&closed->records[i], w.closed_requests[i]);
        rec->traced = trace && (cycle == 1 || cycle == 2);
        Send(&closed_server, *w.catalog, rec);
        Collect(rec);
      },
      [&](size_t i, int64_t due_ns) {
        Record* rec = make(&open->records[i], w.open_requests[i]);
        rec->traced = trace;
        rec->due_ns = due_ns;
        Send(&open_server, *w.catalog, rec);
      },
      [&] {
        open_server.Drain();
        for (auto& rec : open->records) {
          if (rec) Collect(rec.get());
        }
      });
  closed_server.Drain();
  closed->records.resize(load.closed_started);
  closed->timed_first = load.closed_first;
  closed->server = closed_server.stats();
  closed->cache = closed_server.cache_stats();
  open->server = open_server.stats();
  open->cache = open_server.cache_stats();
  return load;
}

int64_t CompletedNs(const Record& rec) {
  return ToNs(rec.result.completed_at);
}

/// Checks every request of `phase`; returns the failed count. The first
/// failure of the run (`*failed_before` == 0) is explained on stderr.
uint64_t Check(const Phase& phase, const References& refs, bool perturb,
               uint64_t failed_before, std::vector<bool>* ok) {
  uint64_t failed = 0;
  auto fail = [&](const std::string& why) {
    if (failed_before + failed++ == 0) {
      std::fprintf(stderr, "perfbench: first failure: %s\n", why.c_str());
    }
  };
  ok->assign(phase.records.size(), false);
  for (size_t i = 0; i < phase.records.size(); ++i) {
    const Record& rec = *phase.records[i];
    if (!rec.completed) {
      fail("refused: " + rec.submit_status.ToString());
      continue;
    }
    const ServedResult& got = rec.result;
    fuzzydb::TopKResult expected = refs.Get(rec.request).topk;
    if (perturb && i == 0 && !expected.items.empty()) {
      expected.items[0].grade = std::nextafter(expected.items[0].grade, 2.0);
    }
    if (!got.status.ok() || !got.completion.ok()) {
      fail("error or truncated: " + got.status.ToString() + " / " +
           got.completion.ToString());
      continue;
    }
    if (!Matches(got.topk, expected)) {
      fail("answer differs from the serial reference");
      continue;
    }
    (*ok)[i] = true;
  }
  return failed;
}

void RecordSpans(const Phase& phase, const std::vector<bool>& ok, bool open,
                 uint64_t request_base, Trace* trace) {
  for (size_t i = 0; i < phase.records.size(); ++i) {
    const Record& rec = *phase.records[i];
    if (!rec.traced || !ok[i]) continue;
    const uint64_t id = request_base + i;
    const int64_t done = CompletedNs(rec);
    const int64_t root = trace->Add(
        "client.request", open ? rec.due_ns : rec.send_ns, done, -1, id);
    if (open) trace->Add("client.lag", rec.due_ns, rec.send_ns, root, id);
    const int64_t submit = trace->Add("server.submit", rec.send_ns,
                                      rec.submit_return_ns, root, id);
    for (const Build& b : rec.builds) {
      trace->Add(b.span, b.start_ns, b.end_ns, submit, id);
    }
    if (rec.result.from_cache || rec.worker_first_ns == 0) continue;
    const int64_t exec_start =
        std::max(rec.worker_first_ns, rec.submit_return_ns);
    trace->Add("server.queue", rec.submit_return_ns, exec_start, root, id);
    trace->Add("server.exec", exec_start, done, root, id);
  }
}

Report RunServed(const RunArgs& args, const ServedConfig& cfg,
                 const Catalog& catalog, Workload w, double setup_s,
                 const std::vector<std::pair<size_t, size_t>>& pairs,
                 const LayerValues& setup_layers) {
  Rng rng(args.seed * 0x9E3779B97F4A7C15ull + 11);
  const LoadPlan plan = MakeLoadPlan(args.seconds, cfg.open_rate_qps, &rng);
  w.catalog = &catalog;
  // Far more requests than the closed loop can send; it stops on the clock.
  w.closed_requests = MakeRequests(
      static_cast<size_t>(args.seconds * kClosedShare * 2000) + 64, cfg, pairs,
      &rng);
  w.open_requests = MakeRequests(OpenRequests(plan), cfg, pairs, &rng);

  fuzzydb::storage::BufferPoolStats pool_before;
  if (w.paged != nullptr) pool_before = w.paged->pool_stats();
  const double setup_rss_mb = PeakRssMb();
  const int64_t phases_start = NowNs();
  Phase closed, open;
  const LoadResult load = RunPhases(w, plan, args.trace, &closed, &open);
  fuzzydb::storage::BufferPoolStats pool_after;
  if (w.paged != nullptr) pool_after = w.paged->pool_stats();
  const double peak_rss_mb = PeakRssMb();
  const int64_t check_start = NowNs();

  // Outside the timed phases: every answer against its reference.
  // Sorted by pair, a request needs its first target and all second ones.
  References refs(&catalog,
                  std::max(cfg.color_targets, cfg.texture_targets) + 2);
  std::vector<Request> sent;
  for (const Phase* phase : {&closed, &open}) {
    for (const auto& rec : phase->records) sent.push_back(rec->request);
  }
  refs.Compute(std::move(sent));
  std::vector<bool> closed_ok, open_ok;
  Report report;
  report.failed = Check(closed, refs, args.perturb_reference, 0, &closed_ok);
  report.failed += Check(open, refs, false, report.failed, &open_ok);
  report.attempted = closed.records.size() + open.records.size();
  report.correct = report.failed == 0;
  LogRun(setup_s, setup_rss_mb, peak_rss_mb,
         NsToMs(check_start - phases_start) / 1e3,
         NsToMs(NowNs() - check_start) / 1e3);

  // Correct completions; traced: -1 all, 0 untraced only, 1 traced only.
  auto samples = [](const Phase& phase, const std::vector<bool>& ok,
                    bool open_loop, int traced) {
    std::vector<Sample> out;
    for (size_t i = phase.timed_first; i < phase.records.size(); ++i) {
      const Record& rec = *phase.records[i];
      if (!ok[i] || (traced >= 0 && rec.traced != (traced == 1))) continue;
      out.push_back({open_loop ? rec.due_ns : rec.send_ns, CompletedNs(rec)});
    }
    return out;
  };
  auto latencies = [&](const Phase& phase, const std::vector<bool>& ok,
                       bool open_loop, int traced) {
    return LatenciesMs(samples(phase, ok, open_loop, traced));
  };

  if (!args.trace) {
    const ClosedFigures fig = SummarizeClosed(
        samples(closed, closed_ok, false, -1), load.closed_segments);
    const std::vector<double> open_lat = latencies(open, open_ok, true, -1);
    ReportEndToEnd(fig, open_lat, setup_s, peak_rss_mb, &report.metrics);
    return report;
  }

  // Traced run: spans from the traced blocks and the open phase.
  // Request ids below closed_end belong to the closed phase.
  Trace trace;
  const uint64_t closed_end = closed.records.size();
  RecordSpans(closed, closed_ok, false, 0, &trace);
  RecordSpans(open, open_ok, true, closed_end, &trace);
  LayerValues v = setup_layers;
  std::vector<double> lag;
  for (const auto& rec : open.records) {
    lag.push_back(NsToMs(rec->send_ns - rec->due_ns));
  }
  AddClientLayerValues(latencies(closed, closed_ok, false, 0),
                       latencies(closed, closed_ok, false, 1), lag,
                       latencies(open, open_ok, true, -1), &v);

  // Layer times from the closed loop's traced blocks (open-loop spans carry
  // the generator's lag as well).
  auto closed_ms = [&](const char* name) {
    return Median(trace.DurationsMs(name, 0, closed_end));
  };
  v["server.submit_ms"] = closed_ms("server.submit");
  v["server.submit_self_ms"] =
      Median(trace.SelfTimesMs("server.submit", 0, closed_end));
  v["server.queue_ms"] = closed_ms("server.queue");
  v["server.exec_ms"] = closed_ms("server.exec");

  const uint64_t hits = closed.cache.hits + open.cache.hits;
  const uint64_t lookups = hits + closed.cache.misses + open.cache.misses;
  v["server.cache_hit_ratio"] =
      lookups ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
  const uint64_t submitted = closed.server.submitted + open.server.submitted;
  const uint64_t rejected =
      closed.server.rejected_queue_full + closed.server.rejected_cost +
      open.server.rejected_queue_full + open.server.rejected_cost;
  v["server.reject_share"] =
      submitted ? static_cast<double>(rejected) / static_cast<double>(submitted)
                : 0.0;

  // Counts over every checked request of both phases.
  double builds = 0, hit_builds = 0, executed = 0;
  std::vector<double> sorted, random, prefix;
  std::map<Algorithm, double> plans;
  for (const Phase* phase : {&closed, &open}) {
    const std::vector<bool>& ok = phase == &closed ? closed_ok : open_ok;
    for (size_t i = 0; i < phase->records.size(); ++i) {
      if (!ok[i]) continue;
      const Record& rec = *phase->records[i];
      const ServedResult& r = rec.result;
      builds += static_cast<double>(rec.builds.size());
      if (r.from_cache) {
        hit_builds += static_cast<double>(rec.builds.size());
        continue;
      }
      executed += 1;
      plans[r.algorithm_used] += 1;
      sorted.push_back(static_cast<double>(r.topk.cost.sorted));
      random.push_back(static_cast<double>(r.topk.cost.random));
      prefix.push_back(static_cast<double>(r.topk.cost.sorted) /
                       static_cast<double>(rec.rows_ranked));
    }
  }
  v["server.hit_build_share"] = builds ? hit_builds / builds : 0.0;
  v["middleware.sorted_per_query"] = Mean(sorted);
  v["middleware.random_per_query"] = Mean(random);
  v["middleware.prefix_used"] = Mean(prefix);
  for (const auto& [algo, count] : plans) {
    v["middleware.plan_share." + fuzzydb::AlgorithmName(algo)] =
        count / executed;
  }

  if (w.paged == nullptr) {
    const double color = closed_ms("image.color_build");
    const double texture = closed_ms("image.texture_build");
    v["image.color_build_ms"] = color;
    v["image.texture_build_ms"] = texture;
    v["image.build_contention"] = (color + texture) / w.solo_build_ms;
  } else {
    v["storage.paged_source_build_ms"] =
        closed_ms("storage.paged_source_build");
    AddPoolLayerValues(pool_before, pool_after, report.attempted, &v);
  }
  AddLayerMetrics(v, &report.metrics);
  if (!trace.Write(args.scratch + "/spans.json", HostFactsJson())) {
    std::fprintf(stderr, "perfbench: could not write spans\n");
  }
  return report;
}

/// Unloaded time to build the sources of `atoms` (median of 3), ms.
double SoloBuildMs(const Catalog& catalog, const std::vector<QueryPtr>& atoms) {
  std::vector<double> times;
  for (int rep = 0; rep < 3; ++rep) {
    const int64_t t0 = NowNs();
    for (const QueryPtr& atom : atoms) {
      const char* span = "";
      Checked(catalog.Build(*atom, &span), "solo build");
    }
    times.push_back(NsToMs(NowNs() - t0));
  }
  return Median(times);
}

/// `count` distinct (a, b) pairs from the na x nb grid in a seeded random
/// order; `distinct` drops pairs with a == b.
std::vector<std::pair<size_t, size_t>> MakePairs(size_t count, size_t na,
                                                 size_t nb, bool distinct,
                                                 Rng* rng) {
  std::vector<std::pair<size_t, size_t>> grid;
  for (size_t a = 0; a < na; ++a) {
    for (size_t b = 0; b < nb; ++b) {
      if (!distinct || a != b) grid.emplace_back(a, b);
    }
  }
  for (size_t i = grid.size(); i > 1; --i) {
    std::swap(grid[i - 1], grid[rng->NextBounded(i)]);
  }
  grid.resize(std::min(count, grid.size()));
  return grid;
}

}  // namespace

Report RunServeRam(const RunArgs& args) {
  const ServedConfig cfg = RamConfig(args.scale);
  fuzzydb::ImageStoreOptions options;
  options.num_images = cfg.n;
  options.palette_size = 64;
  options.seed = args.seed;
  // Set-up: ImageStore::Generate, repeated; the last store is served.
  std::vector<double> setup;
  std::unique_ptr<fuzzydb::ImageStore> store;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    store.reset();
    setup.push_back(TimeSeconds([&] {
      store = std::make_unique<fuzzydb::ImageStore>(
          Checked(fuzzydb::ImageStore::Generate(options), "generate"));
    }));
  }

  Rng rng(args.seed * 0x9E3779B97F4A7C15ull + 7);
  std::vector<fuzzydb::Histogram> colors;
  std::vector<fuzzydb::TextureFeatures> textures;
  for (size_t i = 0; i < cfg.color_targets; ++i) {
    colors.push_back(store->image(rng.NextBounded(store->size())).histogram);
  }
  for (size_t i = 0; i < cfg.texture_targets; ++i) {
    textures.push_back(store->image(rng.NextBounded(store->size())).texture);
  }
  const auto pairs = MakePairs(cfg.pairs, cfg.color_targets,
                               cfg.texture_targets, false, &rng);
  RamCatalog catalog(store.get(), std::move(colors), std::move(textures));
  Workload w;
  w.solo_build_ms = SoloBuildMs(
      catalog, {Query::Atomic("Color", "0"), Query::Atomic("Texture", "0")});
  return RunServed(args, cfg, catalog, std::move(w), Median(setup), pairs, {});
}

Report RunServePaged(const RunArgs& args) {
  const ServedConfig cfg = PagedConfig(args.scale);
  const std::string path = args.scratch + "/serve_paged.col";
  const std::vector<double> spectrum = Spectrum(cfg.dim);

  RemoveAtExit(path);
  PagedSetup setup = SetUpPagedStore(path, cfg.n, cfg.dim, cfg.pool_bytes,
                                     args.seed * 0x9E3779B97F4A7C15ull + 3);

  Rng rng(args.seed * 0x9E3779B97F4A7C15ull + 7);
  std::vector<std::vector<double>> targets(cfg.color_targets,
                                           std::vector<double>(cfg.dim));
  for (auto& t : targets) SyntheticRow(&rng, spectrum, t);
  const auto pairs =
      MakePairs(cfg.pairs, cfg.color_targets, cfg.color_targets, true, &rng);
  PagedCatalog catalog(setup.store.get(), std::move(targets),
                       SyntheticMaxDistance(spectrum));
  Workload w;
  w.paged = setup.store.get();
  LayerValues setup_layers;
  setup_layers["storage.ingest_rows_per_s"] = setup.ingest_rows_per_s;
  setup_layers["storage.open_ms"] = setup.open_ms;
  Report report = RunServed(args, cfg, catalog, std::move(w), setup.setup_s,
                            pairs, setup_layers);
  setup.store.reset();
  std::remove(path.c_str());
  return report;
}

}  // namespace perfbench
