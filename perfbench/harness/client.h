// The benchmark's load generator: kClients client threads in one process.
// A run is an untimed closed-loop warm-up, then kCycles cycles, each a
// closed-loop segment (each client sends its next request when the
// previous one completes) followed by an open-loop segment (requests are
// due on a Poisson schedule fixed in advance, whether or not earlier ones
// finished). Interleaving spreads both loops over the whole run, so a slow
// spell of the host lands on both instead of on one.

#ifndef PERFBENCH_HARNESS_CLIENT_H_
#define PERFBENCH_HARNESS_CLIENT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/random.h"

namespace perfbench {

/// Client threads of every workload (the host has 4 cores; the server uses
/// the other two).
inline constexpr size_t kClients = 2;

/// Closed/open cycles per run. In a traced run the closed segments of
/// cycles 1 and 2 are traced and those of cycles 0 and 3 are not (U T T U),
/// so tracing overhead is measured within one process.
inline constexpr size_t kCycles = 4;

/// Closed-loop warm-up before the first cycle, on top of the run's
/// seconds. Its requests are sent and checked like the others but timed
/// by no metric: the first requests of a process pay for cold caches and
/// first-touch allocation.
inline constexpr double kWarmupSeconds = 1.5;

/// The `cycle` argument warm-up requests are run with.
inline constexpr size_t kWarmupCycle = kCycles;

/// Shares of the run's seconds spent in the closed and open loops.
inline constexpr double kClosedShare = 0.8;
inline constexpr double kOpenShare = 0.2;

/// Closed-loop figures are medians over windows of this many per segment.
inline constexpr size_t kWindowsPerSegment = 5;

struct LoadPlan {
  /// Closed-loop seconds per segment.
  double closed_segment_s = 0.0;
  /// Per cycle: Poisson due times, seconds from the segment start.
  std::vector<std::vector<double>> open_offsets;
};

/// Builds the plan of a run of `seconds` with open-loop arrivals at
/// `open_rate_qps`. Deterministic in `rng`.
LoadPlan MakeLoadPlan(double seconds, double open_rate_qps, fuzzydb::Rng* rng);

/// Requests in the open-loop segments of `plan`.
size_t OpenRequests(const LoadPlan& plan);

struct Segment {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

struct LoadResult {
  /// The timed closed-loop segments (the warm-up is not one of them).
  std::vector<Segment> closed_segments;
  /// First closed-loop request of the timed segments; the ones before it
  /// were the warm-up.
  size_t closed_first = 0;
  /// Closed-loop requests started (indices [0, closed_started)).
  size_t closed_started = 0;
};

/// Runs the warm-up, then `plan`. Closed-loop request i (0, 1, 2, ...
/// across the warm-up and the segments, at most `closed_limit`) runs as
/// closed_op(i, cycle) on whichever client claims it next, with cycle
/// kWarmupCycle during the warm-up; no request starts after its segment's
/// time is up.
/// Open-loop request j (numbered across cycles) runs as open_op(j, due_ns)
/// once due; a request claimed late is sent at once (its lateness is the
/// generator's lag). `open_drain` runs after each open segment's last send
/// and must wait until its requests have completed.
LoadResult RunLoad(const LoadPlan& plan, size_t closed_limit,
                   const std::function<void(size_t, size_t)>& closed_op,
                   const std::function<void(size_t, int64_t)>& open_op,
                   const std::function<void()>& open_drain);

/// One correct completion: from its send (closed loop) or due time (open
/// loop) to its completion, on the steady clock.
struct Sample {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Latencies in ms of `samples`.
std::vector<double> LatenciesMs(const std::vector<Sample>& samples);

/// Closed-loop figures from the samples that complete inside `segments`.
/// The segments are cut into equal windows; throughput is the median over
/// windows of completions per second, p50 the median over windows of the
/// window's median latency. p99 is the median over segments of the
/// segment's p99 (hundreds of samples each). All three are robust to a
/// slow spell of the host that spans a minority of windows or segments.
struct ClosedFigures {
  double throughput_qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  size_t samples = 0;
  std::vector<double> window_qps;
};
ClosedFigures SummarizeClosed(const std::vector<Sample>& samples,
                              const std::vector<Segment>& segments);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_CLIENT_H_
