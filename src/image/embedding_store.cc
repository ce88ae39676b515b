#include "image/embedding_store.h"

#include <algorithm>
#include <cassert>

#include "common/squared_distance.h"

namespace fuzzydb {

// The numeric kernels (exact selection, cascade, tie-breaks, counters) live
// in image/knn_kernel.h, shared with the disk-backed paged store; this file
// supplies only the RAM-resident row accessor and the shard orchestration.

namespace {

using knn_internal::KeepKSmallest;
using knn_internal::ToOutput;

// Zero-cost row access over the contiguous aligned buffer; never fails.
struct DirectRows {
  const double* base;
  size_t stride;
  const double* Acquire(size_t i) const { return base + i * stride; }
};

}  // namespace

Result<EmbeddingStore> EmbeddingStore::Build(
    const QuadraticFormDistance& qfd, const std::vector<Histogram>& database) {
  if (database.empty()) return Status::InvalidArgument("empty database");
  const size_t k = qfd.dimension();
  for (const Histogram& h : database) {
    if (h.size() != k) {
      return Status::InvalidArgument("histogram has wrong bin count");
    }
  }
  EmbeddingStore store(database.size(), k);
  for (size_t i = 0; i < database.size(); ++i) {
    qfd.EmbedInto(database[i], store.MutableRow(i));
  }
  store.BuildQuantized();
  return store;
}

void EmbeddingStore::BatchDistances(std::span<const double> target,
                                    std::span<double> out) const {
  BatchDistances(target, out, /*pool=*/nullptr, /*shards=*/1);
}

void EmbeddingStore::BatchDistances(std::span<const double> target,
                                    std::span<double> out, ThreadPool* pool,
                                    size_t shards) const {
  assert(target.size() == dim_ && out.size() == size_);
  const double* FUZZYDB_RESTRICT t = target.data();
  const std::vector<ShardRange> ranges =
      MakeShards(size_, ResolveShards(shards, pool, size_));
  RunShards(pool, ranges.size(), [&](size_t s) {
    for (size_t i = ranges[s].begin; i < ranges[s].end; ++i) {
      const double* FUZZYDB_RESTRICT row = data_.data() + i * stride_;
      out[i] = std::sqrt(SquaredDistance(row, t, dim_));
    }
  });
}

std::vector<std::pair<size_t, double>> EmbeddingStore::ExactKnn(
    std::span<const double> target, size_t k) const {
  return ExactKnn(target, k, /*pool=*/nullptr, /*shards=*/1);
}

std::vector<std::pair<size_t, double>> EmbeddingStore::ExactKnn(
    std::span<const double> target, size_t k, ThreadPool* pool,
    size_t shards) const {
  if (k == 0 || size_ == 0) return {};
  k = std::min(k, size_);
  assert(target.size() == dim_);

  const std::vector<ShardRange> ranges =
      MakeShards(size_, ResolveShards(shards, pool, size_));
  // Per-shard local top-k of (d^2, index); the global k smallest pairs are
  // contained in the union of the shard-local k smallest.
  std::vector<std::vector<std::pair<double, size_t>>> local(ranges.size());
  RunShards(pool, ranges.size(), [&](size_t s) {
    DirectRows rows{data_.data(), stride_};
    knn_internal::ExactKnnShard(rows, target.data(), dim_, k, ranges[s],
                                &local[s]);
  });

  std::vector<std::pair<double, size_t>> merged;
  merged.reserve(ranges.size() * k);
  for (const auto& mine : local) {
    merged.insert(merged.end(), mine.begin(), mine.end());
  }
  KeepKSmallest(&merged, k);
  return ToOutput(std::move(merged));
}

std::vector<std::pair<size_t, double>> EmbeddingStore::CascadeKnn(
    std::span<const double> target, size_t k, const CascadeOptions& options,
    CascadeStats* stats) const {
  return CascadeKnn(target, k, options, stats, /*pool=*/nullptr, /*shards=*/1);
}

std::vector<std::pair<size_t, double>> EmbeddingStore::CascadeKnn(
    std::span<const double> target, size_t k, const CascadeOptions& options,
    CascadeStats* stats, ThreadPool* pool, size_t shards) const {
  if (k == 0 || size_ == 0) return {};
  k = std::min(k, size_);
  assert(target.size() == dim_);

  // Encode the target against the int8 tier once per query; the encoding is
  // read-only afterwards, so every shard safely shares it.
  const QuantizedStore* qs =
      options.use_quantized && has_quantized() ? &quantized_ : nullptr;
  QuantizedStore::EncodedQuery qquery;
  if (qs != nullptr) qquery = qs->EncodeQuery(target);

  const std::vector<ShardRange> ranges =
      MakeShards(size_, ResolveShards(shards, pool, size_));
  std::vector<std::vector<std::pair<double, size_t>>> local(ranges.size());
  std::vector<CascadeStats> local_stats(ranges.size());
  RunShards(pool, ranges.size(), [&](size_t s) {
    DirectRows rows{data_.data(), stride_};
    knn_internal::CascadeShard(rows, target.data(), dim_, k, options, qs,
                               qs != nullptr ? &qquery : nullptr, ranges[s],
                               &local[s], &local_stats[s]);
  });

  std::vector<std::pair<double, size_t>> merged;
  merged.reserve(ranges.size() * k);
  for (const auto& mine : local) {
    merged.insert(merged.end(), mine.begin(), mine.end());
  }
  KeepKSmallest(&merged, k);
  if (stats != nullptr) {
    // Summed in shard order — deterministic in (size, shards), independent
    // of thread scheduling.
    for (const CascadeStats& ls : local_stats) {
      stats->Absorb(ls);
    }
  }
  return ToOutput(std::move(merged));
}

}  // namespace fuzzydb
