#include "client.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <thread>

#include "common.h"

namespace perfbench {

namespace {

// Runs fn on each of kClients threads and joins them.
void OnClients(const std::function<void()>& fn) {
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) clients.emplace_back(fn);
  for (std::thread& t : clients) t.join();
}

}  // namespace

LoadPlan MakeLoadPlan(double seconds, double open_rate_qps, fuzzydb::Rng* rng) {
  LoadPlan plan;
  plan.closed_segment_s = seconds * kClosedShare / kCycles;
  const double open_segment_s = seconds * kOpenShare / kCycles;
  for (size_t c = 0; c < kCycles; ++c) {
    std::vector<double> offsets;
    double t = 0.0;
    for (;;) {
      t += -std::log(1.0 - rng->NextDouble()) / open_rate_qps;
      if (t >= open_segment_s) break;
      offsets.push_back(t);
    }
    plan.open_offsets.push_back(std::move(offsets));
  }
  return plan;
}

size_t OpenRequests(const LoadPlan& plan) {
  size_t n = 0;
  for (const auto& offsets : plan.open_offsets) n += offsets.size();
  return n;
}

LoadResult RunLoad(const LoadPlan& plan, size_t closed_limit,
                   const std::function<void(size_t, size_t)>& closed_op,
                   const std::function<void(size_t, int64_t)>& open_op,
                   const std::function<void()>& open_drain) {
  LoadResult result;
  std::atomic<size_t> next_closed{0};
  // Closed loop until `seconds` have passed; returns the segment.
  auto closed_segment = [&](double seconds, size_t cycle) {
    Segment segment;
    segment.start_ns = NowNs();
    segment.end_ns = segment.start_ns + static_cast<int64_t>(seconds * 1e9);
    OnClients([&] {
      while (NowNs() < segment.end_ns) {
        const size_t i = next_closed.fetch_add(1);
        if (i >= closed_limit) return;
        closed_op(i, cycle);
      }
    });
    return segment;
  };
  closed_segment(kWarmupSeconds, kWarmupCycle);
  result.closed_first = std::min(next_closed.load(), closed_limit);
  size_t open_first = 0;
  for (size_t cycle = 0; cycle < kCycles; ++cycle) {
    result.closed_segments.push_back(
        closed_segment(plan.closed_segment_s, cycle));

    const std::vector<double>& offsets = plan.open_offsets[cycle];
    const int64_t open_start = NowNs();
    std::atomic<size_t> next_open{0};
    OnClients([&] {
      for (;;) {
        const size_t i = next_open.fetch_add(1);
        if (i >= offsets.size()) return;
        const int64_t due_ns =
            open_start + static_cast<int64_t>(offsets[i] * 1e9);
        const int64_t wait_ns = due_ns - NowNs();
        if (wait_ns > 0) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(wait_ns));
        }
        open_op(open_first + i, due_ns);
      }
    });
    open_drain();
    open_first += offsets.size();
  }
  // Claims past the limit or past a segment's end were never started.
  result.closed_started = std::min(next_closed.load(), closed_limit);
  return result;
}

std::vector<double> LatenciesMs(const std::vector<Sample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(NsToMs(s.end_ns - s.start_ns));
  return out;
}

ClosedFigures SummarizeClosed(const std::vector<Sample>& samples,
                              const std::vector<Segment>& segments) {
  ClosedFigures f;
  const std::vector<double> lat = LatenciesMs(samples);
  std::vector<double> window_p50, segment_p99;
  for (const Segment& seg : segments) {
    const int64_t window_ns =
        (seg.end_ns - seg.start_ns) / static_cast<int64_t>(kWindowsPerSegment);
    struct Window {
      std::vector<double> latencies;
      int64_t first_end = INT64_MAX;
      int64_t last_end = INT64_MIN;
    };
    std::vector<Window> windows(kWindowsPerSegment);
    std::vector<double> in_segment;
    for (size_t i = 0; i < samples.size(); ++i) {
      const int64_t end = samples[i].end_ns;
      if (end < seg.start_ns || end >= seg.end_ns) continue;
      in_segment.push_back(lat[i]);
      Window& w = windows[(end - seg.start_ns) / window_ns];
      w.latencies.push_back(lat[i]);
      w.first_end = std::min(w.first_end, end);
      w.last_end = std::max(w.last_end, end);
    }
    for (const Window& w : windows) {
      if (w.latencies.size() < 2) continue;
      // Completion rate between the window's first and last completion.
      const double span_s =
          static_cast<double>(w.last_end - w.first_end) / 1e9;
      f.window_qps.push_back(static_cast<double>(w.latencies.size() - 1) /
                             span_s);
      window_p50.push_back(Median(w.latencies));
    }
    f.samples += in_segment.size();
    if (!in_segment.empty()) {
      segment_p99.push_back(Percentile(in_segment, 0.99));
    }
  }
  f.throughput_qps = Median(f.window_qps);
  f.p50_ms = Median(window_p50);
  f.p99_ms = Median(segment_p99);
  return f;
}

}  // namespace perfbench
