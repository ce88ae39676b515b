// Test-only oracle for the cascade walk: the original full-sort form, which
// computes every row's bound, sorts all n row indices by (bound, index) and
// walks them until the strict-> halt. knn_internal::CascadeShard replaced
// that sort with a threshold-first walk that must visit the same candidates
// in the same order; the cascade tests compare the two on answers and on
// every CascadeStats counter.
//
// Kept verbatim in its arithmetic (including the per-row float prefix
// accumulators it keeps in the float-only path), minus the contract macros.

#ifndef FUZZYDB_TESTS_CASCADE_ORACLE_H_
#define FUZZYDB_TESTS_CASCADE_ORACLE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/squared_distance.h"
#include "common/thread_pool.h"
#include "image/knn_kernel.h"
#include "image/quantized_store.h"

namespace fuzzydb {
namespace testing_oracle {

template <typename RowAccessor>
bool FullSortCascadeShard(RowAccessor& rows, const double* t, size_t dim,
                          size_t k, const CascadeOptions& options,
                          const QuantizedStore* qs,
                          const QuantizedStore::EncodedQuery* qquery,
                          ShardRange range,
                          std::vector<std::pair<double, size_t>>* best,
                          CascadeStats* stats) {
  const size_t n = range.size();
  if (n == 0) return true;
  k = std::min(k, n);
  const size_t s0 = std::clamp<size_t>(options.prefix_dim, 1, dim);
  const size_t step = std::max<size_t>(options.step, 1);

  std::vector<SquaredDistanceAccumulator> prefix;
  std::vector<double> bound(n);
  if (qquery != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      bound[i] = qs->LowerBound2(*qquery, range.begin + i);
    }
    stats->quantized_bound_computations += n;
    stats->bytes_scanned_quantized += n * qs->row_bytes();
  } else {
    prefix.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const double* row = rows.Acquire(range.begin + i);
      if (row == nullptr) return false;
      prefix[i].Accumulate(row, t, 0, s0);
      bound[i] = prefix[i].Total();
    }
    stats->bound_computations += n;
    stats->bytes_scanned_prefix += n * s0 * sizeof(double);
  }

  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&bound](size_t a, size_t b) {
    if (bound[a] != bound[b]) return bound[a] < bound[b];
    return a < b;
  });

  best->reserve(k);
  size_t worst_pos = 0;
  auto recompute_worst = [best, &worst_pos]() {
    worst_pos = 0;
    for (size_t p = 1; p < best->size(); ++p) {
      if ((*best)[p] > (*best)[worst_pos]) worst_pos = p;
    }
  };

  for (size_t local_idx : order) {
    const double b = bound[local_idx];
    if (best->size() == k && b > (*best)[worst_pos].first) break;
    const size_t idx = range.begin + local_idx;
    const double* row = rows.Acquire(idx);
    if (row == nullptr) return false;
    SquaredDistanceAccumulator acc;
    bool pruned = false;
    if (qquery != nullptr) {
      acc.Accumulate(row, t, 0, s0);
      ++stats->bound_computations;
      stats->bytes_scanned_prefix += s0 * sizeof(double);
      pruned = s0 < dim && best->size() == k &&
               acc.Total() > (*best)[worst_pos].first;
    } else {
      acc = prefix[local_idx];
    }
    size_t j = s0;
    while (j < dim && !pruned) {
      const size_t stop = std::min(dim, j + step);
      acc.Accumulate(row, t, j, stop);
      j = stop;
      if (j < dim && best->size() == k &&
          acc.Total() > (*best)[worst_pos].first) {
        pruned = true;
      }
    }
    ++stats->candidates_refined;
    stats->dims_accumulated += j - s0;
    stats->bytes_scanned_refine += (j - s0) * sizeof(double);
    if (j == dim) ++stats->full_distance_computations;
    if (pruned) continue;

    const double d2 = acc.Total();
    if (best->size() < k) {
      best->emplace_back(d2, idx);
      if (best->size() == k) recompute_worst();
    } else if (std::pair(d2, idx) < (*best)[worst_pos]) {
      (*best)[worst_pos] = {d2, idx};
      recompute_worst();
    }
  }
  return true;
}

// The stores' serial shard loop around FullSortCascadeShard: same shard
// split, same merge, stats absorbed in shard order. `make_rows()` returns a
// fresh accessor per shard. The caller owns any buffer-pool counters.
template <typename MakeRows>
std::vector<std::pair<size_t, double>> FullSortCascadeKnn(
    MakeRows make_rows, size_t n, size_t dim, std::span<const double> target,
    size_t k, const CascadeOptions& options, const QuantizedStore* qs,
    size_t shards, CascadeStats* stats) {
  if (k == 0 || n == 0) return {};
  k = std::min(k, n);
  QuantizedStore::EncodedQuery qquery;
  const bool quantized = options.use_quantized && qs != nullptr && !qs->empty();
  if (quantized) qquery = qs->EncodeQuery(target);
  const std::vector<ShardRange> ranges =
      MakeShards(n, ResolveShards(shards, nullptr, n));
  std::vector<std::pair<double, size_t>> merged;
  for (const ShardRange& range : ranges) {
    auto rows = make_rows();
    std::vector<std::pair<double, size_t>> local;
    FullSortCascadeShard(rows, target.data(), dim, k, options,
                         quantized ? qs : nullptr,
                         quantized ? &qquery : nullptr, range, &local, stats);
    merged.insert(merged.end(), local.begin(), local.end());
  }
  knn_internal::KeepKSmallest(&merged, k);
  return knn_internal::ToOutput(std::move(merged));
}

// The threshold-first walk against the oracle's counters. The int8 path
// must match on every field. The float-only path re-reads each visited
// candidate's s0-dim prefix instead of keeping n accumulators, so its
// bytes_scanned_prefix is higher by exactly refined * s0 doubles and every
// other field matches.
inline void ExpectSameWalk(const CascadeStats& got, const CascadeStats& want,
                           bool quantized, size_t s0,
                           const std::string& label) {
  EXPECT_EQ(got.quantized_bound_computations,
            want.quantized_bound_computations) << label;
  EXPECT_EQ(got.bound_computations, want.bound_computations) << label;
  EXPECT_EQ(got.candidates_refined, want.candidates_refined) << label;
  EXPECT_EQ(got.full_distance_computations, want.full_distance_computations)
      << label;
  EXPECT_EQ(got.dims_accumulated, want.dims_accumulated) << label;
  EXPECT_EQ(got.bytes_scanned_quantized, want.bytes_scanned_quantized)
      << label;
  const size_t reread =
      quantized ? 0 : want.candidates_refined * s0 * sizeof(double);
  EXPECT_EQ(got.bytes_scanned_prefix, want.bytes_scanned_prefix + reread)
      << label;
  EXPECT_EQ(got.bytes_scanned_refine, want.bytes_scanned_refine) << label;
  EXPECT_EQ(got.bytes_read_disk, want.bytes_read_disk) << label;
  EXPECT_EQ(got.buffer_pool_hits, want.buffer_pool_hits) << label;
  EXPECT_EQ(got.buffer_pool_misses, want.buffer_pool_misses) << label;
  EXPECT_EQ(got.buffer_pool_evictions, want.buffer_pool_evictions) << label;
}

// Both level −1 modes at three level-0 prefixes: 1 (weakest float bound),
// 8 (the default), and 64, which clamps to the full dimension so float
// bounds equal exact d^2 and duplicates put rows with bound == tau past
// the walk's head.
inline std::vector<CascadeOptions> WalkOptions() {
  std::vector<CascadeOptions> out;
  for (bool quantized : {true, false}) {
    for (CascadeOptions o : {CascadeOptions{1, 1}, CascadeOptions{8, 16},
                             CascadeOptions{64, 16}}) {
      o.use_quantized = quantized;
      out.push_back(o);
    }
  }
  return out;
}

inline std::string WalkLabel(const std::string& what,
                             const CascadeOptions& o, size_t k,
                             size_t shards) {
  return what + (o.use_quantized ? " int8" : " float") +
         " s0=" + std::to_string(o.prefix_dim) + " k=" + std::to_string(k) +
         " shards=" + std::to_string(shards);
}

// A collection that defeats both level bounds at once: every row equals
// `target` on its first `shared_dims` dims (float prefix bounds of up to
// that length are exactly 0) and differs from it by ~1e-7 elsewhere, far
// below the int8 quantization step (so level −1 bounds clamp to 0 too).
// Exact distances are distinct, so the walk's first c·k candidates cannot
// certify the top k and the fallback pass must run.
struct ZeroBoundStorm {
  std::vector<double> target;
  std::vector<std::vector<double>> rows;
};

inline ZeroBoundStorm MakeZeroBoundStorm(size_t n, size_t dim,
                                         size_t shared_dims, uint64_t seed) {
  Rng rng(seed);
  ZeroBoundStorm storm;
  storm.target.resize(dim);
  for (double& v : storm.target) v = rng.NextDouble() - 0.5;
  storm.rows.assign(n, storm.target);
  for (std::vector<double>& row : storm.rows) {
    for (size_t j = shared_dims; j < dim; ++j) {
      row[j] += 1e-7 * (rng.NextDouble() - 0.5);
    }
  }
  return storm;
}

}  // namespace testing_oracle
}  // namespace fuzzydb

#endif  // FUZZYDB_TESTS_CASCADE_ORACLE_H_
