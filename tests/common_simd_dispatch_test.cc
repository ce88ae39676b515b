// The dispatch contract of the int8 block-SSD kernels: every kernel the
// host can run must produce *bit-identical* int32 block sums to the
// portable scalar kernel — the accumulations are exact integer arithmetic,
// so equality is required, not approximate. Levels beyond Detect() cannot
// be exercised here (the instructions would fault); the CI matrix covers
// them by forcing FUZZYDB_SIMD across hosts.

#include "common/simd_dispatch.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <vector>

#include "common/random.h"

namespace fuzzydb {
namespace {

std::vector<int8_t> RandomCodes(Rng* rng, size_t n) {
  std::vector<int8_t> codes(n);
  for (int8_t& c : codes) {
    c = static_cast<int8_t>(
        rng->NextInt(-simd::kInt8CodeMax, simd::kInt8CodeMax));
  }
  return codes;
}

std::vector<simd::Level> SupportedLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::Detect() >= simd::Level::kAvx2) {
    levels.push_back(simd::Level::kAvx2);
  }
  if (simd::Detect() >= simd::Level::kAvx512Vnni) {
    levels.push_back(simd::Level::kAvx512Vnni);
  }
  return levels;
}

TEST(SimdDispatchTest, EveryRunnableKernelMatchesScalarBitForBit) {
  Rng rng(515);
  // Sizes hit the paired-block main loop and the odd trailing block.
  for (size_t blocks : {1u, 2u, 3u, 4u, 7u, 64u}) {
    const size_t n = blocks * simd::kBlockDim;
    for (int rep = 0; rep < 25; ++rep) {
      const std::vector<int8_t> x = RandomCodes(&rng, n);
      const std::vector<int8_t> y = RandomCodes(&rng, n);
      std::vector<int32_t> want(blocks);
      simd::ResolveBlockSsd(simd::Level::kScalar)(x.data(), y.data(), n,
                                                  want.data());
      for (simd::Level level : SupportedLevels()) {
        std::vector<int32_t> got(blocks, -1);
        simd::ResolveBlockSsd(level)(x.data(), y.data(), n, got.data());
        for (size_t b = 0; b < blocks; ++b) {
          ASSERT_EQ(got[b], want[b])
              << simd::Name(level) << " blocks=" << blocks << " block=" << b;
        }
      }
    }
  }
}

// The scalar batched bound, written out from the BoundBatchFn contract.
double ReferenceBound(const simd::BoundBatch& batch, size_t r) {
  double dq2 = 0.0;
  for (size_t b = 0; b < batch.padded / simd::kBlockDim; ++b) {
    int32_t ssd = 0;
    for (size_t j = b * simd::kBlockDim; j < (b + 1) * simd::kBlockDim; ++j) {
      const int32_t d = batch.codes[r * batch.padded + j] - batch.query[j];
      ssd += d * d;
    }
    dq2 += batch.scales_sq[b] * static_cast<double>(ssd);
  }
  const double bound =
      std::sqrt(dq2) * batch.shrink - batch.residuals[r] - batch.query_residual;
  return bound <= 0.0 ? 0.0 : bound * bound;
}

TEST(SimdDispatchTest, EveryRunnableBoundBatchMatchesTheContractBitForBit) {
  Rng rng(519);
  // Block counts hit the vector steps' full and partial tails; row counts
  // hit whole 8-row groups and every row tail.
  for (size_t blocks : {1u, 2u, 3u, 4u, 5u, 7u, 64u}) {
    const size_t padded = blocks * simd::kBlockDim;
    for (size_t rows : {1u, 7u, 8u, 9u, 16u, 23u}) {
      const std::vector<int8_t> codes = RandomCodes(&rng, rows * padded);
      const std::vector<int8_t> query = RandomCodes(&rng, padded);
      std::vector<double> scales_sq(blocks);
      for (double& s : scales_sq) s = 1e-4 * rng.NextDouble();
      std::vector<double> residuals(rows);
      // Large residuals clamp some rows to 0; small ones keep the rest.
      for (double& r : residuals) {
        r = rng.NextDouble() * (rng.NextBernoulli(0.3) ? 10.0 : 0.01);
      }
      simd::BoundBatch batch;
      batch.codes = codes.data();
      batch.query = query.data();
      batch.padded = padded;
      batch.scales_sq = scales_sq.data();
      batch.residuals = residuals.data();
      batch.query_residual = 0.003;
      batch.shrink = 1.0 - 1e-9;
      for (simd::Level level : SupportedLevels()) {
        std::vector<double> out(rows, -1.0);
        simd::ResolveBoundBatch(level)(batch, rows, out.data());
        for (size_t r = 0; r < rows; ++r) {
          ASSERT_EQ(std::bit_cast<uint64_t>(out[r]),
                    std::bit_cast<uint64_t>(ReferenceBound(batch, r)))
              << simd::Name(level) << " blocks=" << blocks << " rows=" << rows
              << " row=" << r;
        }
      }
    }
  }
}

TEST(SimdDispatchTest, ExtremeCodesNeverOverflowAnyKernel) {
  // All codes at +/-kInt8CodeMax: per-dim diff^2 = 126^2, the worst case
  // the maddubs path must survive without s8/s16 saturation.
  const size_t n = 4 * simd::kBlockDim;
  std::vector<int8_t> hi(n, static_cast<int8_t>(simd::kInt8CodeMax));
  std::vector<int8_t> lo(n, static_cast<int8_t>(-simd::kInt8CodeMax));
  const int32_t per_block =
      static_cast<int32_t>(simd::kBlockDim) * (2 * simd::kInt8CodeMax) *
      (2 * simd::kInt8CodeMax);
  for (simd::Level level : SupportedLevels()) {
    std::vector<int32_t> sums(4);
    simd::ResolveBlockSsd(level)(hi.data(), lo.data(), n, sums.data());
    for (int32_t s : sums) EXPECT_EQ(s, per_block) << simd::Name(level);
  }
}

TEST(SimdDispatchTest, IdenticalInputsSumToZero) {
  Rng rng(517);
  const size_t n = 3 * simd::kBlockDim;
  const std::vector<int8_t> x = RandomCodes(&rng, n);
  for (simd::Level level : SupportedLevels()) {
    std::vector<int32_t> sums(3, -1);
    simd::ResolveBlockSsd(level)(x.data(), x.data(), n, sums.data());
    for (int32_t s : sums) EXPECT_EQ(s, 0) << simd::Name(level);
  }
}

TEST(SimdDispatchTest, NamesAndParseRoundTrip) {
  for (simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2,
                            simd::Level::kAvx512Vnni}) {
    const std::optional<simd::Level> parsed = simd::Parse(simd::Name(level));
    ASSERT_TRUE(parsed.has_value()) << simd::Name(level);
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_EQ(simd::Parse("avx512"), simd::Level::kAvx512Vnni);
  EXPECT_FALSE(simd::Parse("").has_value());
  EXPECT_FALSE(simd::Parse("AVX2").has_value());
  EXPECT_FALSE(simd::Parse("neon").has_value());
}

TEST(SimdDispatchTest, ActiveNeverExceedsDetectedHardware) {
  // Whatever FUZZYDB_SIMD says, Active() is clamped to what the CPU has —
  // an env typo must degrade, never fault.
  EXPECT_LE(simd::Active(), simd::Detect());
  EXPECT_NE(simd::ActiveBlockSsd(), nullptr);
  EXPECT_EQ(simd::ActiveBlockSsd(), simd::ResolveBlockSsd(simd::Active()));
}

}  // namespace
}  // namespace fuzzydb
