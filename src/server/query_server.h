// Multi-tenant query server (DESIGN §3j): concurrent top-k admission over
// the shared ThreadPool, cost-based admission control, per-query access
// budgets, and an LRU plan/result cache keyed on the rewriter-canonical
// query form.
//
// Design points:
//   - Submit never blocks on execution: it plans, admits, and hands back a
//     Ticket the caller waits on. Execution runs on the pool via TryPost;
//     a full queue is an *explicit rejection* (Submit returns
//     ResourceExhausted and nothing was enqueued), never a silent drop —
//     backpressure the tenant can see and retry against.
//   - Admission control compares the optimizer's charged-cost estimate for
//     the chosen plan against `admission_max_cost`; per-query sorted-access
//     budgets are derived from the same estimate (headroom × expected
//     sorted accesses), so a query that blows past its own plan's
//     prediction is truncated, completing with the documented
//     partial-result Status instead of starving its neighbors.
//   - Determinism: every admitted query executes with the *serial*
//     ParallelOptions — concurrency lives between queries, not inside one —
//     so each answer is bit-identical to a serial ExecuteTopK of the same
//     plan at every pool size, budget truncation included (the governor
//     charges consumed accesses only; middleware/budget.h).
//   - On a workerless pool (ThreadPool(1), or no pool at all) Submit runs
//     the query inline on the calling thread: TryPost always refuses there,
//     and rejecting everything would make a 1-core host serve nothing. The
//     ticket completes before Submit returns; semantics are otherwise
//     identical.
//   - The plan/result cache is keyed CanonicalKey(query) + k, so
//     rewritten-equal queries share entries (core/equivalence.h). Partial
//     results are never cached. InvalidateCache() bumps the store version:
//     stale entries can never be served afterwards, even by a query that
//     was mid-flight across the invalidation (server/query_cache.h).

#ifndef FUZZYDB_SERVER_QUERY_SERVER_H_
#define FUZZYDB_SERVER_QUERY_SERVER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "common/thread_pool.h"
#include "common/ticket.h"
#include "middleware/budget.h"
#include "middleware/executor.h"
#include "server/query_cache.h"

namespace fuzzydb {

/// Server-wide configuration.
struct QueryServerOptions {
  /// Executes admitted queries. Null, or a pool with no workers, degrades
  /// to inline execution on the submitting thread (see header comment).
  ThreadPool* pool = nullptr;
  /// Test seam: when set, admitted work is handed to this executor instead
  /// of pool->TryPost — bypassing queue backpressure — so hostile
  /// schedulers (ShuffledExecutor) can drive the server. Tests must run the
  /// executor's deferred tasks before Drain() or the destructor.
  TaskExecutor* executor = nullptr;
  /// Plan/result cache capacity (entries).
  size_t cache_capacity = 1024;
  /// Prices for planning, admission, and budget derivation.
  CostModel cost_model;
  /// Reject queries whose chosen plan's estimated charged cost exceeds
  /// this. 0 = no cost-based admission control.
  double admission_max_cost = 0.0;
  /// When > 0, each query gets a sorted-access budget of
  /// ceil(headroom × the plan's estimated sorted accesses) unless its
  /// SubmitOptions pins one. 0 = no derived budgets.
  double budget_headroom = 0.0;
  /// Cache full results (plans are always cached). Partial results never.
  bool cache_results = true;
  /// External data-generation probe. When set, every Submit compares the
  /// probe's value against the last one observed and calls
  /// InvalidateCache() on change — composing the cache's own version with
  /// a backing store's (e.g. storage::PagedEmbeddingStore::version()), so
  /// re-ingesting the on-disk collection can never serve stale cached
  /// results. Must be cheap and thread-safe; called with no server lock.
  std::function<uint64_t()> data_version;
};

/// Per-query knobs.
struct SubmitOptions {
  /// Explicit consumed-sorted-access budget (0 = derive from
  /// budget_headroom, or unlimited when that is 0 too).
  uint64_t sorted_access_budget = 0;
  /// Wall-clock deadline for this query.
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

/// What a query's ticket completes with.
struct ServedResult {
  /// OK when the query executed (possibly truncated — see `completion`);
  /// an execution error otherwise. Admission rejections never get here:
  /// they fail Submit itself.
  Status status;
  TopKResult topk;
  Algorithm algorithm_used = Algorithm::kNaive;
  /// The executor's partial-result Status: OK for a run that reached its
  /// halting condition, else Cancelled / DeadlineExceeded /
  /// ResourceExhausted with `topk` holding the top-k of the consumed
  /// prefix.
  Status completion;
  /// Served from the result cache (no execution, no governor).
  bool from_cache = false;
  /// When the ticket was completed; sojourn time = this - submit time.
  std::chrono::steady_clock::time_point completed_at;
};

/// An admitted query: the handle to wait on, plus the cancellation gate.
struct Submission {
  std::shared_ptr<Ticket<ServedResult>> ticket;
  /// Cancel() truncates the run (completion = Cancelled). Null for cache
  /// hits and unbudgeted inline runs that finished before Submit returned.
  std::shared_ptr<AccessGovernor> governor;
};

/// Admission / serving counters (cache counters live in CacheStats).
struct ServerStats {
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  /// TryPost refusals surfaced as ResourceExhausted rejections.
  uint64_t rejected_queue_full = 0;
  /// Admission-control (estimated cost) rejections.
  uint64_t rejected_cost = 0;
  /// Tickets completed straight from the result cache.
  uint64_t served_from_cache = 0;
};

/// Multi-tenant top-k query server. Thread-safe: any number of threads may
/// Submit / Cancel / Drain concurrently. The destructor drains.
class QueryServer {
 public:
  explicit QueryServer(const QueryServerOptions& options = {});
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Plans, admits, and dispatches `query` for its top-k answers.
  /// `resolver` (and every source it returns) must stay valid until the
  /// ticket completes. A query whose full result is cached is served from
  /// the cache without its atoms being resolved: `resolver` is never
  /// called, so no source is built. Errors are all pre-execution:
  ///   - InvalidArgument: null query / no atoms / unresolvable atom (the
  ///     last only when the query is not served from the cache);
  ///   - ResourceExhausted "admission": estimated cost over the limit;
  ///   - ResourceExhausted "queue full": TryPost refused — explicit
  ///     backpressure, nothing was enqueued or silently dropped.
  Result<Submission> Submit(QueryPtr query, size_t k, SourceResolver resolver,
                            const SubmitOptions& submit = {});

  /// Blocks until every admitted query has completed its ticket.
  void Drain();

  /// Drops all cached plans/results and bumps the store version (call when
  /// subsystem data regenerates). See server/query_cache.h for the
  /// never-serve-stale guarantee.
  void InvalidateCache();

  ServerStats stats() const;
  CacheStats cache_stats() const { return cache_.stats(); }
  size_t in_flight() const;

 private:
  /// The execution body for one admitted query.
  void RunQuery(QueryPtr query, SourceResolver resolver, size_t k,
                PlanChoice plan, std::shared_ptr<AccessGovernor> governor,
                std::shared_ptr<Ticket<ServedResult>> ticket, std::string key,
                uint64_t store_version);

  const QueryServerOptions options_;
  QueryCache cache_;

  mutable Mutex mu_;
  CondVar drained_cv_;
  size_t in_flight_ GUARDED_BY(mu_) = 0;
  ServerStats stats_ GUARDED_BY(mu_);
  /// Last options_.data_version() value observed (nullopt before the
  /// first probe; the first observation never invalidates).
  std::optional<uint64_t> last_data_version_ GUARDED_BY(mu_);
};

}  // namespace fuzzydb

#endif  // FUZZYDB_SERVER_QUERY_SERVER_H_
