// The quantized tier's two load-bearing claims, tested directly:
//
//  1. Admissibility by construction — QuantizedStore::LowerBound2 never
//     exceeds the exact squared embedding distance, for every (query, row)
//     pair, at zero tolerance. Not statistically: the bound carries its own
//     safety margin, so a single overshoot is a bug.
//  2. Answer preservation — CascadeKnn with the int8 level -1 engaged is
//     bit-identical to ExactKnn (same indices, same order, same distance
//     bits) at every shard count, under tie storms, and on adversarially
//     scaled data.

#include "image/quantized_store.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <thread>

#include "cascade_oracle.h"
#include "common/squared_distance.h"
#include "image/embedding_store.h"
#include "image/quadratic_distance.h"

namespace fuzzydb {
namespace {

std::vector<Histogram> RandomDatabase(Rng* rng, size_t n, size_t bins) {
  std::vector<Histogram> db;
  db.reserve(n);
  for (size_t i = 0; i < n; ++i) db.push_back(RandomHistogram(rng, bins));
  return db;
}

double ExactSquared(const EmbeddingStore& store, size_t i,
                    std::span<const double> target) {
  SquaredDistanceAccumulator acc;
  acc.Accumulate(store.Row(i).data(), target.data(), 0, store.dim());
  return acc.Total();
}

std::vector<size_t> ShardCounts() {
  return {1, 2, 7, std::max<size_t>(1, std::thread::hardware_concurrency())};
}

void ExpectIdentical(const std::vector<std::pair<size_t, double>>& got,
                     const std::vector<std::pair<size_t, double>>& want,
                     const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first) << label << " rank " << i;
    EXPECT_EQ(got[i].second, want[i].second) << label << " rank " << i;
  }
}

TEST(QuantizedStoreTest, LowerBoundIsAdmissibleForEveryPairAcrossBinCounts) {
  Rng rng(6007);
  for (size_t bins : {8u, 27u, 64u}) {
    Palette palette = Palette::Uniform(bins, &rng);
    QuadraticFormDistance qfd = *QuadraticFormDistance::Create(palette);
    EmbeddingStore store = *EmbeddingStore::Build(
        qfd, RandomDatabase(&rng, 120, bins));
    ASSERT_TRUE(store.has_quantized());
    const QuantizedStore& qs = store.quantized();
    EXPECT_EQ(qs.size(), store.size());
    EXPECT_EQ(qs.dim(), store.dim());
    for (int q = 0; q < 6; ++q) {
      // Mix of in-distribution targets and perturbed stored rows.
      std::vector<double> target;
      if (q % 2 == 0) {
        target = qfd.Embed(RandomHistogram(&rng, bins));
      } else {
        std::span<const double> row = store.Row(q % store.size());
        target.assign(row.begin(), row.end());
        for (double& v : target) v += 0.05 * (rng.NextDouble() - 0.5);
      }
      const QuantizedStore::EncodedQuery enc = qs.EncodeQuery(target);
      for (size_t i = 0; i < store.size(); ++i) {
        const double bound = qs.LowerBound2(enc, i);
        const double exact = ExactSquared(store, i, target);
        ASSERT_LE(bound, exact)
            << "bins=" << bins << " q=" << q << " row=" << i;
        ASSERT_GE(bound, 0.0);
      }
    }
  }
}

TEST(QuantizedStoreTest, StoredCodesNeverClampAndResidualsAreExact) {
  Rng rng(6011);
  Palette palette = Palette::Uniform(27, &rng);
  QuadraticFormDistance qfd = *QuadraticFormDistance::Create(palette);
  EmbeddingStore store =
      *EmbeddingStore::Build(qfd, RandomDatabase(&rng, 40, 27));
  const QuantizedStore& qs = store.quantized();
  for (size_t i = 0; i < qs.size(); ++i) {
    std::span<const int8_t> codes = qs.RowCodes(i);
    double residual_sq = 0.0;
    for (size_t j = 0; j < qs.dim(); ++j) {
      ASSERT_GE(codes[j], -simd::kInt8CodeMax);
      ASSERT_LE(codes[j], simd::kInt8CodeMax);
      const double err = store.Row(i)[j] -
                         static_cast<double>(codes[j]) *
                             qs.scale(j / QuantizedStore::kBlockDim);
      residual_sq += err * err;
    }
    // Padding dims must stay zero codes.
    for (size_t j = qs.dim(); j < qs.padded_dim(); ++j) {
      ASSERT_EQ(codes[j], 0);
    }
    EXPECT_DOUBLE_EQ(qs.row_residual(i), std::sqrt(residual_sq)) << i;
  }
}

TEST(QuantizedStoreTest, FarOutOfRangeTargetsClampButStayAdmissible) {
  // Query values 1000x beyond the data's range force query-side clamping;
  // clamping grows the query residual, which may only weaken the bound.
  Rng rng(6029);
  Palette palette = Palette::Uniform(16, &rng);
  QuadraticFormDistance qfd = *QuadraticFormDistance::Create(palette);
  EmbeddingStore store =
      *EmbeddingStore::Build(qfd, RandomDatabase(&rng, 60, 16));
  const QuantizedStore& qs = store.quantized();
  std::vector<double> target(store.dim());
  for (size_t j = 0; j < target.size(); ++j) {
    target[j] = 1000.0 * (rng.NextDouble() - 0.5);
  }
  const QuantizedStore::EncodedQuery enc = qs.EncodeQuery(target);
  for (size_t i = 0; i < store.size(); ++i) {
    ASSERT_LE(qs.LowerBound2(enc, i), ExactSquared(store, i, target)) << i;
  }
  // And the cascade still answers exactly.
  ExpectIdentical(store.CascadeKnn(target, 5), store.ExactKnn(target, 5),
                  "far target");
}

TEST(QuantizedStoreTest, AdversarialScaleBlockStaysAdmissible) {
  // Worst case for per-block scaling: one huge outlier value makes its
  // block's scale enormous, so every other value in that block quantizes to
  // code 0 and the bound must survive on the residual correction alone.
  const size_t dim = 48;
  EmbeddingStore store(6, dim);
  Rng rng(6037);
  for (size_t i = 0; i < store.size(); ++i) {
    std::span<double> row = store.MutableRow(i);
    for (size_t j = 0; j < dim; ++j) row[j] = rng.NextDouble() - 0.5;
  }
  store.MutableRow(3)[17] = 1e6;  // the outlier poisons block 1's scale
  store.BuildQuantized();
  const QuantizedStore& qs = store.quantized();
  Rng trng(6043);
  for (int q = 0; q < 8; ++q) {
    std::vector<double> target(dim);
    for (double& v : target) v = trng.NextDouble() - 0.5;
    if (q == 7) target[17] = 1e6;  // meet the outlier in its own block
    const QuantizedStore::EncodedQuery enc = qs.EncodeQuery(target);
    for (size_t i = 0; i < store.size(); ++i) {
      ASSERT_LE(qs.LowerBound2(enc, i), ExactSquared(store, i, target))
          << "q=" << q << " row=" << i;
    }
    ExpectIdentical(store.CascadeKnn(target, 3), store.ExactKnn(target, 3),
                    "adversarial q=" + std::to_string(q));
  }
}

EmbeddingStore RandomStore(Rng* rng, size_t n, size_t dim) {
  EmbeddingStore store(n, dim);
  for (size_t i = 0; i < n; ++i) {
    for (double& v : store.MutableRow(i)) v = rng->NextDouble() - 0.5;
  }
  store.BuildQuantized();
  return store;
}

TEST(QuantizedStoreTest, BatchedKernelMatchesPerRowLowerBoundBitForBit) {
  // LowerBounds2 runs the batched kernel of the active level (the simd CI
  // leg forces each one); LowerBound2 is the per-row reference. Dims cover
  // a single code, partial / whole / just-over blocks, and a 4-block row;
  // the (first, len) windows cover 8-row groups and their row tails.
  Rng rng(6073);
  for (size_t dim : {1u, 15u, 16u, 17u, 33u, 64u}) {
    const EmbeddingStore store = RandomStore(&rng, 203, dim);
    const QuantizedStore& qs = store.quantized();
    for (int q = 0; q < 3; ++q) {
      // q == 2 queries a stored row, so some bounds clamp to 0.
      std::vector<double> target(store.Row(q == 2 ? 11 : 0).begin(),
                                 store.Row(q == 2 ? 11 : 0).end());
      if (q < 2) {
        for (double& v : target) v = rng.NextDouble() - 0.5;
      }
      const QuantizedStore::EncodedQuery enc = qs.EncodeQuery(target);
      std::vector<double> want(qs.size());
      for (size_t i = 0; i < qs.size(); ++i) want[i] = qs.LowerBound2(enc, i);
      const std::pair<size_t, size_t> windows[] = {
          {0, 203}, {0, 1}, {3, 7}, {5, 8}, {1, 9}, {13, 17}, {40, 64},
          {194, 9}, {202, 1}};
      for (const auto& [first, len] : windows) {
        std::vector<double> got(len, -1.0);
        qs.LowerBounds2(enc, first, got);
        for (size_t r = 0; r < len; ++r) {
          ASSERT_EQ(std::bit_cast<uint64_t>(got[r]),
                    std::bit_cast<uint64_t>(want[first + r]))
              << "dim=" << dim << " q=" << q << " first=" << first
              << " row=" << first + r;
        }
      }
      std::vector<double> all(qs.size());
      qs.BatchLowerBounds2(enc, all);
      for (size_t i = 0; i < qs.size(); ++i) {
        ASSERT_EQ(std::bit_cast<uint64_t>(all[i]),
                  std::bit_cast<uint64_t>(want[i]))
            << "dim=" << dim << " q=" << q << " i=" << i;
      }
    }
  }
}

TEST(QuantizedStoreTest, BatchLowerBoundsShardedIsBitIdenticalToSerial) {
  Rng rng(6047);
  Palette palette = Palette::Uniform(32, &rng);
  QuadraticFormDistance qfd = *QuadraticFormDistance::Create(palette);
  EmbeddingStore store =
      *EmbeddingStore::Build(qfd, RandomDatabase(&rng, 203, 32));
  const QuantizedStore& qs = store.quantized();
  const QuantizedStore::EncodedQuery enc =
      qs.EncodeQuery(qfd.Embed(RandomHistogram(&rng, 32)));
  std::vector<double> serial(qs.size());
  qs.BatchLowerBounds2(enc, serial);
  ThreadPool pool(4);
  for (size_t shards : ShardCounts()) {
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      std::vector<double> sharded(qs.size(), -1.0);
      qs.BatchLowerBounds2(enc, sharded, p, shards);
      for (size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(sharded[i], serial[i])
            << "shards=" << shards << " pool=" << (p != nullptr) << " i=" << i;
      }
    }
  }
}

class QuantizedCascadeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(6053);
    palette_ = Palette::Uniform(64, &rng);
    qfd_ = *QuadraticFormDistance::Create(palette_);
    db_ = RandomDatabase(&rng, 500, 64);
    store_ = *EmbeddingStore::Build(qfd_, db_);
    for (int q = 0; q < 5; ++q) {
      targets_.push_back(qfd_.Embed(RandomHistogram(&rng, 64)));
    }
  }

  Palette palette_;
  QuadraticFormDistance qfd_;
  std::vector<Histogram> db_;
  EmbeddingStore store_;
  std::vector<std::vector<double>> targets_;
};

TEST_F(QuantizedCascadeTest, GoldenBitIdenticalAcrossShardCountsAndOptions) {
  ThreadPool pool(4);
  for (const std::vector<double>& target : targets_) {
    const std::vector<std::pair<size_t, double>> exact =
        store_.ExactKnn(target, 10);
    for (CascadeOptions options :
         {CascadeOptions{1, 1}, CascadeOptions{8, 16}, CascadeOptions{64, 16}}) {
      ASSERT_TRUE(options.use_quantized);  // the tier defaults on
      for (size_t shards : ShardCounts()) {
        for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
          CascadeStats stats;
          ExpectIdentical(
              store_.CascadeKnn(target, 10, options, &stats, p, shards), exact,
              "int8 cascade shards=" + std::to_string(shards));
          EXPECT_EQ(stats.quantized_bound_computations, store_.size());
          EXPECT_EQ(stats.bytes_scanned_quantized,
                    store_.size() * store_.quantized().row_bytes());
        }
      }
    }
  }
}

TEST_F(QuantizedCascadeTest, DuplicateTieStormKeepsIndexOrder) {
  // 5 distinct rows x 21 copies: every distance ties 21 ways, across shard
  // borders, and the quantized bounds tie too. Rank order must still be
  // ascending-index, identical to the serial exact scan.
  Rng rng(6067);
  std::vector<Histogram> distinct = RandomDatabase(&rng, 5, 64);
  std::vector<Histogram> db;
  for (int copy = 0; copy < 21; ++copy) {
    for (const Histogram& h : distinct) db.push_back(h);
  }
  EmbeddingStore store = *EmbeddingStore::Build(qfd_, db);
  ASSERT_TRUE(store.has_quantized());
  std::vector<double> target = qfd_.Embed(distinct[2]);
  const std::vector<std::pair<size_t, double>> exact =
      store.ExactKnn(target, 23);
  for (size_t i = 1; i < exact.size(); ++i) {
    if (exact[i].second == exact[i - 1].second) {
      EXPECT_LT(exact[i - 1].first, exact[i].first);
    }
  }
  ThreadPool pool(4);
  for (size_t shards : ShardCounts()) {
    ExpectIdentical(store.CascadeKnn(target, 23, {}, nullptr, &pool, shards),
                    exact, "tie storm shards=" + std::to_string(shards));
  }
}

TEST_F(QuantizedCascadeTest, QuantizedOnAndOffReturnTheSameBits) {
  for (const std::vector<double>& target : targets_) {
    CascadeOptions off;
    off.use_quantized = false;
    ExpectIdentical(store_.CascadeKnn(target, 10),
                    store_.CascadeKnn(target, 10, off), "on == off");
  }
}

TEST_F(QuantizedCascadeTest, TierSkipsFarMoreRowsThanTheFloatPrefixAdmits) {
  // The tier's reason to exist: on a 500-row store the int8 full-dimension
  // bound should dismiss the overwhelming majority of rows before any
  // float work happens.
  CascadeStats stats;
  for (const std::vector<double>& target : targets_) {
    store_.CascadeKnn(target, 10, {}, &stats);
  }
  EXPECT_EQ(stats.quantized_bound_computations,
            targets_.size() * store_.size());
  EXPECT_LT(stats.bound_computations,
            targets_.size() * store_.size() / 4);
}

TEST_F(QuantizedCascadeTest, EmptyAndEdgeCasesStayExact) {
  EXPECT_TRUE(store_.CascadeKnn(targets_[0], 0).empty());
  ExpectIdentical(store_.CascadeKnn(targets_[0], db_.size() + 10),
                  store_.ExactKnn(targets_[0], db_.size()), "k > n");
  // Self-query through the quantized tier: distance exactly 0 at rank 0.
  std::vector<double> self(store_.Row(7).begin(), store_.Row(7).end());
  const auto got = store_.CascadeKnn(self, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, 7u);
  EXPECT_EQ(got[0].second, 0.0);
}

// ---- The threshold-first walk against the full-sort oracle --------------

using testing_oracle::WalkLabel;
using testing_oracle::WalkOptions;

struct RamRows {
  const EmbeddingStore* store;
  const double* Acquire(size_t i) const { return store->Row(i).data(); }
};

// Runs CascadeKnn (sharded on a pool) and the full-sort oracle (serial
// shards) and checks answers and counters; returns the walk's counters.
CascadeStats ExpectOracleWalk(const EmbeddingStore& store,
                              std::span<const double> target, size_t k,
                              const CascadeOptions& options, size_t shards,
                              ThreadPool* pool, const std::string& label) {
  CascadeStats want;
  const auto expected = testing_oracle::FullSortCascadeKnn(
      [&store] { return RamRows{&store}; }, store.size(), store.dim(), target,
      k, options, store.has_quantized() ? &store.quantized() : nullptr,
      shards, &want);
  CascadeStats got;
  ExpectIdentical(store.CascadeKnn(target, k, options, &got, pool, shards),
                  expected, label);
  const bool quantized = options.use_quantized && store.has_quantized();
  testing_oracle::ExpectSameWalk(
      got, want, quantized,
      std::clamp<size_t>(options.prefix_dim, 1, store.dim()), label);
  return got;
}

TEST_F(QuantizedCascadeTest, ThresholdWalkMatchesFullSortOracle) {
  ThreadPool pool(4);
  const size_t n = store_.size();
  for (const CascadeOptions& options : WalkOptions()) {
    for (size_t k : {size_t{1}, size_t{10}, n - 1, n, n + 3}) {
      for (size_t shards : {1u, 2u, 7u}) {
        ExpectOracleWalk(store_, targets_[k % targets_.size()], k, options,
                         shards, &pool,
                         WalkLabel("random", options, k, shards));
      }
    }
  }
}

TEST(QuantizedWalkTest, ZeroBoundTieStormRunsTheFallbackIdentically) {
  const size_t n = 300;
  const size_t dim = 24;
  const testing_oracle::ZeroBoundStorm storm =
      testing_oracle::MakeZeroBoundStorm(n, dim, /*shared_dims=*/8, 6079);
  EmbeddingStore store(n, dim);
  for (size_t i = 0; i < n; ++i) {
    std::copy(storm.rows[i].begin(), storm.rows[i].end(),
              store.MutableRow(i).begin());
  }
  store.BuildQuantized();
  // The storm is real: every level −1 bound is 0.
  std::vector<double> bounds(n);
  store.quantized().BatchLowerBounds2(
      store.quantized().EncodeQuery(storm.target), bounds);
  for (double b : bounds) ASSERT_EQ(b, 0.0);

  ThreadPool pool(4);
  for (const CascadeOptions& options : WalkOptions()) {
    for (size_t k : {size_t{1}, size_t{5}, n - 1, n}) {
      for (size_t shards : {1u, 2u, 7u}) {
        const CascadeStats got =
            ExpectOracleWalk(store, storm.target, k, options, shards, &pool,
                             WalkLabel("storm", options, k, shards));
        if (options.prefix_dim <= 8 &&
            knn_internal::kCascadeHeadFactor * k < n / shards) {
          // No bound can halt the walk, so it runs past the c·k head in
          // every shard: the fallback pass ran.
          EXPECT_EQ(got.candidates_refined, n)
              << WalkLabel("storm", options, k, shards);
        }
      }
    }
  }
}

TEST_F(QuantizedCascadeTest, DuplicateRowsWalkMatchesFullSortOracle) {
  Rng rng(6089);
  std::vector<Histogram> distinct = RandomDatabase(&rng, 5, 64);
  std::vector<Histogram> db;
  for (int copy = 0; copy < 21; ++copy) {
    for (const Histogram& h : distinct) db.push_back(h);
  }
  const EmbeddingStore store = *EmbeddingStore::Build(qfd_, db);
  const std::vector<double> target = qfd_.Embed(distinct[2]);
  ThreadPool pool(4);
  for (const CascadeOptions& options : WalkOptions()) {
    for (size_t k : {size_t{1}, size_t{23}, db.size() - 1, db.size() + 1}) {
      for (size_t shards : {1u, 2u, 7u}) {
        ExpectOracleWalk(store, target, k, options, shards, &pool,
                         WalkLabel("duplicates", options, k, shards));
      }
    }
  }
}

}  // namespace
}  // namespace fuzzydb
