// AVX2 + FMA backend of the rerank kernel layer. This translation unit is
// the only one compiled with -mavx2 -mfma (see CMakeLists.txt), so the
// intrinsics stay isolated: the rest of the library builds for the
// baseline ISA and kernels.cpp selects this backend at runtime only after
// a CPUID probe confirms both feature bits.
//
// Bit-exactness contract (tested against scalar_ops in test_kernels):
// each lane accumulates features in index order with vfmadd for the
// squared/dot kernels - exactly std::fma in the scalar reference - |x| is
// the same clear-sign-bit operation and the linf max keeps the reference's
// NaN handling, so accumulators are bit-identical to the scalar kernel's
// on every input.
#include "distance/kernels/kernels.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <utility>

namespace mcam::distance::kernels {

namespace {

// One feature step of one accumulator chain: the scalar reference's
// per-lane operation on eight lanes at once.
template <MetricKind K>
__m256 step(__m256 acc, __m256 v, __m256 q) {
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);
  if constexpr (K == MetricKind::kCosine) {
    return _mm256_fmadd_ps(v, q, acc);
  } else if constexpr (K == MetricKind::kManhattan) {
    return _mm256_add_ps(acc, _mm256_andnot_ps(sign_mask, _mm256_sub_ps(v, q)));
  } else if constexpr (K == MetricKind::kLinf) {
    // vmaxps(x, a) is `x > a ? x : a`: a NaN |diff| keeps a, exactly the
    // scalar reference's `if (diff > acc) acc = diff`.
    return _mm256_max_ps(_mm256_andnot_ps(sign_mask, _mm256_sub_ps(v, q)), acc);
  } else {
    const __m256 diff = _mm256_sub_ps(v, q);
    return _mm256_fmadd_ps(diff, diff, acc);
  }
}

/// Slabs per group: eight accumulator chains, with the query broadcast and
/// the temporaries, fit the sixteen ymm registers.
constexpr std::size_t kGroup = 8;

// Scores N <= kGroup slabs (one per index S) with N independent
// accumulator chains. One slab alone stalls on the FMA latency at every
// feature; a full group keeps both FMA ports busy. The metric is a
// template argument and the chains are a pack expansion, not loops, so
// they stay in registers and go straight to `acc` (GCC turns a loop that
// zeroes or stores the chain array into memset/memcpy calls through a
// stack copy; CI fails if this file's object holds a `rep stos`). The
// chains never mix, so each lane's sum is the scalar reference's.
template <MetricKind K, std::size_t... S>
void accum_group(std::index_sequence<S...>, const float* const* slabs,
                 const float* query, std::size_t dim, float* acc) {
  __m256 a[] = {(static_cast<void>(S), _mm256_setzero_ps())...};
  const float* slab[] = {slabs[S]...};
  for (std::size_t d = 0; d < dim; ++d) {
    const __m256 q = _mm256_set1_ps(query[d]);
    ((a[S] = step<K>(a[S], _mm256_loadu_ps(slab[S] + d * kBlockRows), q)), ...);
  }
  (_mm256_storeu_ps(acc + S * kBlockRows, a[S]), ...);
}

template <MetricKind K, std::size_t N>
void accum_group(const float* const* slabs, const float* query, std::size_t dim, float* acc) {
  accum_group<K>(std::make_index_sequence<N>{}, slabs, query, dim, acc);
}

// A whole call: full groups of kGroup slabs, then one group of the 1-7
// left over.
template <MetricKind K>
void accum_chunk(const float* const* slabs, std::size_t count, const float* query,
                 std::size_t dim, float* acc) {
  std::size_t s = 0;
  for (; s + kGroup <= count; s += kGroup) {
    accum_group<K, kGroup>(slabs + s, query, dim, acc + s * kBlockRows);
  }
  const float* const* rest = slabs + s;
  float* out = acc + s * kBlockRows;
  switch (count - s) {
    case 1: accum_group<K, 1>(rest, query, dim, out); break;
    case 2: accum_group<K, 2>(rest, query, dim, out); break;
    case 3: accum_group<K, 3>(rest, query, dim, out); break;
    case 4: accum_group<K, 4>(rest, query, dim, out); break;
    case 5: accum_group<K, 5>(rest, query, dim, out); break;
    case 6: accum_group<K, 6>(rest, query, dim, out); break;
    case 7: accum_group<K, 7>(rest, query, dim, out); break;
    default: break;
  }
}

void avx2_block_accum(MetricKind kind, const float* const* slabs, std::size_t count,
                      const float* query, std::size_t dim, float* acc) {
  switch (kind) {
    case MetricKind::kEuclidean:
    case MetricKind::kSquaredEuclidean:
      accum_chunk<MetricKind::kSquaredEuclidean>(slabs, count, query, dim, acc);
      break;
    case MetricKind::kCosine:
      accum_chunk<MetricKind::kCosine>(slabs, count, query, dim, acc);
      break;
    case MetricKind::kManhattan:
      accum_chunk<MetricKind::kManhattan>(slabs, count, query, dim, acc);
      break;
    case MetricKind::kLinf:
      accum_chunk<MetricKind::kLinf>(slabs, count, query, dim, acc);
      break;
  }
}

std::int32_t avx2_dot_i8(const std::int8_t* a, const std::int8_t* b, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  for (std::size_t i = 0; i < n; i += 32) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    // Widen to i16 and multiply-accumulate pairs into i32 lanes: products
    // are at most 127^2, so a pair sum fits i16 range times 2 and the i32
    // lanes absorb any practical dimensionality without overflow.
    const __m256i a_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(va));
    const __m256i a_hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(va, 1));
    const __m256i b_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(vb));
    const __m256i b_hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(vb, 1));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a_lo, b_lo));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a_hi, b_hi));
  }
  __m128i sum =
      _mm_add_epi32(_mm256_castsi256_si128(acc), _mm256_extracti128_si256(acc, 1));
  sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, _MM_SHUFFLE(1, 0, 3, 2)));
  sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(sum);
}

constexpr KernelOps kAvx2Ops{"avx2", "avx2+int8", avx2_block_accum, avx2_dot_i8};

}  // namespace

const KernelOps* avx2_ops() noexcept { return &kAvx2Ops; }

}  // namespace mcam::distance::kernels

#else  // target does not compile AVX2: provider reports "absent".

namespace mcam::distance::kernels {

const KernelOps* avx2_ops() noexcept { return nullptr; }

}  // namespace mcam::distance::kernels

#endif
