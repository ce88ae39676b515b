#include "common/simd_dispatch.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdlib>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FUZZYDB_SIMD_X86 1
#include <immintrin.h>
#endif

namespace fuzzydb {
namespace simd {

namespace {

void BlockSsdScalar(const int8_t* x, const int8_t* y, size_t n,
                    int32_t* out) {
  assert(n % kBlockDim == 0);
  for (size_t b = 0; b * kBlockDim < n; ++b) {
    int32_t acc = 0;
    for (size_t j = b * kBlockDim; j < (b + 1) * kBlockDim; ++j) {
      const int32_t d = static_cast<int32_t>(x[j]) - static_cast<int32_t>(y[j]);
      acc += d * d;
    }
    out[b] = acc;
  }
}

// One row's bound from its block sums: the fixed per-row double sequence of
// the BoundBatchFn contract. Every level's row tails run through here, and
// its vector bodies replay it lane by lane.
double BoundFromSums(const BoundBatch& batch, const int32_t* sums,
                     double residual) {
  double dq2 = 0.0;
  for (size_t b = 0; b < batch.padded / kBlockDim; ++b) {
    dq2 += batch.scales_sq[b] * static_cast<double>(sums[b]);
  }
  const double bound =
      std::sqrt(dq2) * batch.shrink - residual - batch.query_residual;
  return bound <= 0.0 ? 0.0 : bound * bound;
}

// Rows [first, rows) one at a time through a block-SSD kernel.
void BoundRows(BlockSsdFn ssd, const BoundBatch& batch, size_t first,
               size_t rows, double* out) {
  std::array<int32_t, kMaxBlocks> sums;
  for (size_t r = first; r < rows; ++r) {
    ssd(batch.codes + r * batch.padded, batch.query, batch.padded,
        sums.data());
    out[r] = BoundFromSums(batch, sums.data(), batch.residuals[r]);
  }
}

void BoundBatchScalar(const BoundBatch& batch, size_t rows, double* out) {
  BoundRows(BlockSsdScalar, batch, 0, rows, out);
}

// Rows per vector step of the batched-bound kernels: one __m512d, two
// __m256d. Block sums are staged transposed, sums[b][row], so the double
// recombination runs across the 8 rows with each row's own operation order.
constexpr size_t kGroupRows = 8;

#if defined(FUZZYDB_SIMD_X86)

// Horizontal sum of 4 int32 lanes.
__attribute__((target("avx2"))) int32_t HSum4(__m128i v) {
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(v);
}

// Two 16-code blocks per 256-bit vector. maddubs and madd are in-lane, so
// block b lands in the low 128-bit lane and block b+1 in the high one.
// Operand bounds (codes in ±kInt8CodeMax): diff in [-126, 126] — no int8
// wrap in sub_epi8, |diff| fits both maddubs operands, pair sums < 2^15.
__attribute__((target("avx2"))) void BlockSsdAvx2(const int8_t* x,
                                                  const int8_t* y, size_t n,
                                                  int32_t* out) {
  assert(n % kBlockDim == 0);
  const size_t blocks = n / kBlockDim;
  size_t b = 0;
  for (; b + 2 <= blocks; b += 2) {
    const __m256i vx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(x + b * kBlockDim));
    const __m256i vy = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(y + b * kBlockDim));
    const __m256i diff = _mm256_sub_epi8(vx, vy);
    const __m256i ad = _mm256_abs_epi8(diff);
    const __m256i sq = _mm256_maddubs_epi16(ad, ad);  // 16 x s16 pair sums
    const __m256i s32 = _mm256_madd_epi16(sq, _mm256_set1_epi16(1));
    out[b] = HSum4(_mm256_castsi256_si128(s32));
    out[b + 1] = HSum4(_mm256_extracti128_si256(s32, 1));
  }
  if (b < blocks) {  // odd trailing block: same arithmetic, one 128-bit lane
    const __m128i vx = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(x + b * kBlockDim));
    const __m128i vy = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(y + b * kBlockDim));
    const __m128i diff = _mm_sub_epi8(vx, vy);
    const __m128i ad = _mm_abs_epi8(diff);
    const __m128i sq = _mm_maddubs_epi16(ad, ad);
    out[b] = HSum4(_mm_madd_epi16(sq, _mm_set1_epi16(1)));
  }
}

// Per 128-bit lane, rows 0..3's sums of their four int32 lanes: v_i holds
// row i's partial sums, four lanes per block, one block per 128-bit lane.
__attribute__((target("avx2"))) __m256i TransposeAdd4(__m256i v0, __m256i v1,
                                                      __m256i v2, __m256i v3) {
  const __m256i t0 = _mm256_add_epi32(_mm256_unpacklo_epi32(v0, v1),
                                      _mm256_unpackhi_epi32(v0, v1));
  const __m256i t1 = _mm256_add_epi32(_mm256_unpacklo_epi32(v2, v3),
                                      _mm256_unpackhi_epi32(v2, v3));
  return _mm256_add_epi32(_mm256_unpacklo_epi64(t0, t1),
                          _mm256_unpackhi_epi64(t0, t1));
}

// Row r's partial sums over blocks 2g and 2g+1: four int32 lanes per block,
// one block per 128-bit lane (maddubs and madd stay in-lane). A trailing
// odd block loads 16 codes into the low lane and leaves the high lane 0.
__attribute__((target("avx2"))) __m256i PairPartialsAvx2(const int8_t* x,
                                                         const int8_t* y,
                                                         bool single) {
  __m256i vx;
  __m256i vy;
  if (single) {
    vx = _mm256_zextsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x)));
    vy = _mm256_zextsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(y)));
  } else {
    vx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x));
    vy = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y));
  }
  const __m256i ad = _mm256_abs_epi8(_mm256_sub_epi8(vx, vy));
  return _mm256_madd_epi16(_mm256_maddubs_epi16(ad, ad),
                           _mm256_set1_epi16(1));
}

__attribute__((target("avx2"))) void BoundBatchAvx2(const BoundBatch& batch,
                                                    size_t rows, double* out) {
  const size_t blocks = batch.padded / kBlockDim;
  alignas(32) int32_t sums[kMaxBlocks][kGroupRows];
  const __m256d shrink = _mm256_set1_pd(batch.shrink);
  const __m256d query_residual = _mm256_set1_pd(batch.query_residual);
  const __m256d zero = _mm256_setzero_pd();
  size_t r = 0;
  for (; r + kGroupRows <= rows; r += kGroupRows) {
    const int8_t* base = batch.codes + r * batch.padded;
    for (size_t b = 0; b < blocks; b += 2) {
      const size_t off = b * kBlockDim;
      const bool single = b + 1 == blocks;
      __m256i v[kGroupRows];
      for (size_t i = 0; i < kGroupRows; ++i) {
        v[i] = PairPartialsAvx2(base + i * batch.padded + off,
                                batch.query + off, single);
      }
      const __m256i lo = TransposeAdd4(v[0], v[1], v[2], v[3]);
      const __m256i hi = TransposeAdd4(v[4], v[5], v[6], v[7]);
      // sums[b] = rows 0..7 of block b; sums[b+1] likewise (all 0 past a
      // trailing odd block, and never read).
      _mm256_store_si256(reinterpret_cast<__m256i*>(sums[b]),
                         _mm256_permute2x128_si256(lo, hi, 0x20));
      _mm256_store_si256(reinterpret_cast<__m256i*>(sums[b + 1]),
                         _mm256_permute2x128_si256(lo, hi, 0x31));
    }
    for (size_t half = 0; half < kGroupRows; half += 4) {
      __m256d dq2 = _mm256_setzero_pd();
      for (size_t b = 0; b < blocks; ++b) {
        const __m256d ssd = _mm256_cvtepi32_pd(
            _mm_load_si128(reinterpret_cast<const __m128i*>(sums[b] + half)));
        dq2 = _mm256_add_pd(
            dq2, _mm256_mul_pd(_mm256_set1_pd(batch.scales_sq[b]), ssd));
      }
      __m256d bound = _mm256_mul_pd(_mm256_sqrt_pd(dq2), shrink);
      bound = _mm256_sub_pd(bound, _mm256_loadu_pd(batch.residuals + r + half));
      bound = _mm256_sub_pd(bound, query_residual);
      const __m256d clamp = _mm256_cmp_pd(bound, zero, _CMP_LE_OQ);
      _mm256_storeu_pd(out + r + half,
                       _mm256_blendv_pd(_mm256_mul_pd(bound, bound), zero,
                                        clamp));
    }
  }
  BoundRows(BlockSsdAvx2, batch, r, rows, out);
}

// GCC's avx512 cast/extract intrinsics expand through a deliberately
// uninitialized __Y temporary (avxintrin.h), tripping -Wmaybe-uninitialized
// under -Werror; the value is never actually read.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

__attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni"))) int32_t
HSum8Vnni(__m256i v) {
  const __m128i sum =
      _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  __m128i s = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

// Two 16-code blocks per iteration: sign-extend 32 int8 codes to int16,
// subtract, then one vpdpwssd accumulates diff*diff pairs into int32 lanes.
// cvtepi8_epi16 is sequential, so s16 lanes 0..15 are block b and 16..31
// are block b+1; dpwssd pairs in-order, so s32 lanes 0..7 / 8..15 split the
// same way.
__attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni"))) void
BlockSsdAvx512Vnni(const int8_t* x, const int8_t* y, size_t n, int32_t* out) {
  assert(n % kBlockDim == 0);
  const size_t blocks = n / kBlockDim;
  size_t b = 0;
  for (; b + 2 <= blocks; b += 2) {
    const __m256i bx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(x + b * kBlockDim));
    const __m256i by = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(y + b * kBlockDim));
    const __m512i diff =
        _mm512_sub_epi16(_mm512_cvtepi8_epi16(bx), _mm512_cvtepi8_epi16(by));
    const __m512i acc =
        _mm512_dpwssd_epi32(_mm512_setzero_si512(), diff, diff);
    out[b] = HSum8Vnni(_mm512_castsi512_si256(acc));
    out[b + 1] = HSum8Vnni(_mm512_extracti64x4_epi64(acc, 1));
  }
  if (b < blocks) {  // odd trailing block via the 256-bit VNNI form
    const __m128i bx = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(x + b * kBlockDim));
    const __m128i by = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(y + b * kBlockDim));
    const __m256i diff =
        _mm256_sub_epi16(_mm256_cvtepi8_epi16(bx), _mm256_cvtepi8_epi16(by));
    out[b] = HSum8Vnni(_mm256_dpwssd_epi32(_mm256_setzero_si256(), diff, diff));
  }
}

#define FUZZYDB_VNNI_TARGET \
  __attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni")))

// The AVX2 TransposeAdd4 on four 128-bit lanes.
FUZZYDB_VNNI_TARGET __m512i TransposeAdd4x4(__m512i v0, __m512i v1,
                                            __m512i v2, __m512i v3) {
  const __m512i t0 = _mm512_add_epi32(_mm512_unpacklo_epi32(v0, v1),
                                      _mm512_unpackhi_epi32(v0, v1));
  const __m512i t1 = _mm512_add_epi32(_mm512_unpacklo_epi32(v2, v3),
                                      _mm512_unpackhi_epi32(v2, v3));
  return _mm512_add_epi32(_mm512_unpacklo_epi64(t0, t1),
                          _mm512_unpackhi_epi64(t0, t1));
}

// Four blocks per 512-bit step: |diff| bytes through vpdpbusd give int32
// lanes of four squared diffs each, so block j of the step is lanes
// 4j..4j+3 — one block per 128-bit lane, the layout TransposeAdd4x4 wants.
// |diff| <= 126 fits both the unsigned and the signed operand, and a lane
// sums at most 4 * 126^2. A tail step masks its loads: masked-out codes are
// 0 on both sides, so the unused lanes sum to 0 and are never read.
FUZZYDB_VNNI_TARGET void BoundBatchAvx512Vnni(const BoundBatch& batch,
                                              size_t rows, double* out) {
  const size_t blocks = batch.padded / kBlockDim;
  constexpr size_t kStepCodes = 4 * kBlockDim;
  alignas(64) int32_t sums[kMaxBlocks][kGroupRows];
  const __m512i lo_index = _mm512_set_epi64(11, 10, 3, 2, 9, 8, 1, 0);
  const __m512i hi_index = _mm512_set_epi64(15, 14, 7, 6, 13, 12, 5, 4);
  const __m512d shrink = _mm512_set1_pd(batch.shrink);
  const __m512d query_residual = _mm512_set1_pd(batch.query_residual);
  const __m512d zero = _mm512_setzero_pd();
  size_t r = 0;
  for (; r + kGroupRows <= rows; r += kGroupRows) {
    const int8_t* base = batch.codes + r * batch.padded;
    for (size_t off = 0; off < batch.padded; off += kStepCodes) {
      const size_t codes = std::min(kStepCodes, batch.padded - off);
      const __mmask64 mask =
          codes == kStepCodes ? ~__mmask64{0} : (__mmask64{1} << codes) - 1;
      const __m512i q = _mm512_maskz_loadu_epi8(mask, batch.query + off);
      __m512i v[kGroupRows];
      for (size_t i = 0; i < kGroupRows; ++i) {
        const __m512i x =
            _mm512_maskz_loadu_epi8(mask, base + i * batch.padded + off);
        const __m512i ad = _mm512_abs_epi8(_mm512_sub_epi8(x, q));
        v[i] = _mm512_dpbusd_epi32(_mm512_setzero_si512(), ad, ad);
      }
      const __m512i lo = TransposeAdd4x4(v[0], v[1], v[2], v[3]);
      const __m512i hi = TransposeAdd4x4(v[4], v[5], v[6], v[7]);
      // Interleave 128-bit lanes: rows 0..7 of blocks j, j+1 | j+2, j+3.
      const size_t b = off / kBlockDim;
      _mm512_store_si512(sums[b], _mm512_permutex2var_epi64(lo, lo_index, hi));
      _mm512_store_si512(sums[b + 2],
                         _mm512_permutex2var_epi64(lo, hi_index, hi));
    }
    __m512d dq2 = _mm512_setzero_pd();
    for (size_t b = 0; b < blocks; ++b) {
      const __m512d ssd = _mm512_cvtepi32_pd(
          _mm256_load_si256(reinterpret_cast<const __m256i*>(sums[b])));
      dq2 = _mm512_add_pd(
          dq2, _mm512_mul_pd(_mm512_set1_pd(batch.scales_sq[b]), ssd));
    }
    __m512d bound = _mm512_mul_pd(_mm512_sqrt_pd(dq2), shrink);
    bound = _mm512_sub_pd(bound, _mm512_loadu_pd(batch.residuals + r));
    bound = _mm512_sub_pd(bound, query_residual);
    const __mmask8 clamp = _mm512_cmp_pd_mask(bound, zero, _CMP_LE_OQ);
    _mm512_storeu_pd(out + r, _mm512_mask_blend_pd(
                                  clamp, _mm512_mul_pd(bound, bound), zero));
  }
  BoundRows(BlockSsdAvx512Vnni, batch, r, rows, out);
}

#undef FUZZYDB_VNNI_TARGET

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // FUZZYDB_SIMD_X86

Level DetectUncached() {
#if defined(FUZZYDB_SIMD_X86)
  if (__builtin_cpu_supports("avx512vnni") &&
      __builtin_cpu_supports("avx512vl") &&
      __builtin_cpu_supports("avx512bw")) {
    return Level::kAvx512Vnni;
  }
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
#endif
  return Level::kScalar;
}

Level ActiveUncached() {
  Level level = Detect();
  // Runs once, under Active()'s magic-static init, before any worker thread
  // exists — and nothing in the process ever setenv()s — so the getenv
  // race concurrency-mt-unsafe guards against cannot occur here.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* forced = std::getenv("FUZZYDB_SIMD");
  if (forced != nullptr) {
    if (std::optional<Level> parsed = Parse(forced); parsed.has_value()) {
      // Clamp to hardware: forcing can narrow the ISA, never exceed it.
      if (*parsed < level) level = *parsed;
    }
  }
  return level;
}

}  // namespace

Level Detect() {
  static const Level cached = DetectUncached();
  return cached;
}

Level Active() {
  static const Level cached = ActiveUncached();
  return cached;
}

BlockSsdFn ResolveBlockSsd(Level level) {
#if defined(FUZZYDB_SIMD_X86)
  switch (level) {
    case Level::kAvx512Vnni:
      return BlockSsdAvx512Vnni;
    case Level::kAvx2:
      return BlockSsdAvx2;
    case Level::kScalar:
      return BlockSsdScalar;
  }
#else
  (void)level;
#endif
  return BlockSsdScalar;
}

BoundBatchFn ResolveBoundBatch(Level level) {
#if defined(FUZZYDB_SIMD_X86)
  switch (level) {
    case Level::kAvx512Vnni:
      return BoundBatchAvx512Vnni;
    case Level::kAvx2:
      return BoundBatchAvx2;
    case Level::kScalar:
      return BoundBatchScalar;
  }
#else
  (void)level;
#endif
  return BoundBatchScalar;
}

BlockSsdFn ActiveBlockSsd() {
  static const BlockSsdFn cached = ResolveBlockSsd(Active());
  return cached;
}

std::string_view Name(Level level) {
  switch (level) {
    case Level::kAvx512Vnni:
      return "avx512vnni";
    case Level::kAvx2:
      return "avx2";
    case Level::kScalar:
      return "scalar";
  }
  return "scalar";
}

std::optional<Level> Parse(std::string_view text) {
  if (text == "scalar") return Level::kScalar;
  if (text == "avx2") return Level::kAvx2;
  if (text == "avx512" || text == "avx512vnni") return Level::kAvx512Vnni;
  return std::nullopt;
}

}  // namespace simd
}  // namespace fuzzydb
