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

namespace mcam::distance::kernels {

namespace {

// Scores N slabs with N independent accumulator chains. One slab alone
// stalls on the 4-cycle FMA latency at every feature; N = 4 chains give
// the two FMA ports enough independent work. The chains never mix, so
// each lane's sum is the scalar reference's.
template <std::size_t N>
void accum_slabs(MetricKind kind, const float* const* slabs, const float* query,
                 std::size_t dim, float* acc) {
  __m256 a[N];
  const float* slab[N];
  for (std::size_t s = 0; s < N; ++s) {
    a[s] = _mm256_setzero_ps();
    slab[s] = slabs[s];
  }
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);
  const auto lanes = [&slab](std::size_t s, std::size_t d) {
    return _mm256_loadu_ps(slab[s] + d * kBlockRows);
  };
  switch (kind) {
    case MetricKind::kEuclidean:
    case MetricKind::kSquaredEuclidean:
      for (std::size_t d = 0; d < dim; ++d) {
        const __m256 q = _mm256_set1_ps(query[d]);
        for (std::size_t s = 0; s < N; ++s) {
          const __m256 diff = _mm256_sub_ps(lanes(s, d), q);
          a[s] = _mm256_fmadd_ps(diff, diff, a[s]);
        }
      }
      break;
    case MetricKind::kCosine:
      for (std::size_t d = 0; d < dim; ++d) {
        const __m256 q = _mm256_set1_ps(query[d]);
        for (std::size_t s = 0; s < N; ++s) a[s] = _mm256_fmadd_ps(lanes(s, d), q, a[s]);
      }
      break;
    case MetricKind::kManhattan:
      for (std::size_t d = 0; d < dim; ++d) {
        const __m256 q = _mm256_set1_ps(query[d]);
        for (std::size_t s = 0; s < N; ++s) {
          a[s] = _mm256_add_ps(a[s], _mm256_andnot_ps(sign_mask, _mm256_sub_ps(lanes(s, d), q)));
        }
      }
      break;
    case MetricKind::kLinf:
      // vmaxps(x, a) is `x > a ? x : a`: a NaN |diff| keeps a, exactly the
      // scalar reference's `if (diff > acc) acc = diff`.
      for (std::size_t d = 0; d < dim; ++d) {
        const __m256 q = _mm256_set1_ps(query[d]);
        for (std::size_t s = 0; s < N; ++s) {
          a[s] = _mm256_max_ps(_mm256_andnot_ps(sign_mask, _mm256_sub_ps(lanes(s, d), q)), a[s]);
        }
      }
      break;
  }
  for (std::size_t s = 0; s < N; ++s) _mm256_storeu_ps(acc + s * kBlockRows, a[s]);
}

void avx2_block_accum(MetricKind kind, const float* const* slabs, std::size_t count,
                      const float* query, std::size_t dim, float* acc) {
  static_assert(kMaxBlocksPerCall == 4);
  switch (count) {
    case 1: accum_slabs<1>(kind, slabs, query, dim, acc); break;
    case 2: accum_slabs<2>(kind, slabs, query, dim, acc); break;
    case 3: accum_slabs<3>(kind, slabs, query, dim, acc); break;
    default: accum_slabs<4>(kind, slabs, query, dim, acc); break;
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
