// NEON backend of the rerank kernel layer (aarch64, where Advanced SIMD
// is baseline - no special compile flags needed). Same bit-exactness
// contract as the AVX2 backend: per lane, features accumulate in index
// order with fused multiply-add (vfmaq = std::fma), clear-sign-bit abs
// and a NaN-skipping max, so accumulators match the scalar reference bit
// for bit.
#include "distance/kernels/kernels.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

namespace mcam::distance::kernels {

namespace {

// Scores N slabs with N independent pairs of accumulator chains (one q
// register per half block), so consecutive FMAs do not wait on each
// other; the chains never mix, so each lane's sum is the scalar
// reference's.
template <std::size_t N>
void accum_slabs(MetricKind kind, const float* const* slabs, const float* query,
                 std::size_t dim, float* acc) {
  float32x4_t lo[N];
  float32x4_t hi[N];
  const float* slab[N];
  for (std::size_t s = 0; s < N; ++s) {
    lo[s] = vdupq_n_f32(0.0f);
    hi[s] = vdupq_n_f32(0.0f);
    slab[s] = slabs[s];
  }
  switch (kind) {
    case MetricKind::kEuclidean:
    case MetricKind::kSquaredEuclidean:
      for (std::size_t d = 0; d < dim; ++d) {
        const float32x4_t q = vdupq_n_f32(query[d]);
        for (std::size_t s = 0; s < N; ++s) {
          const float32x4_t d0 = vsubq_f32(vld1q_f32(slab[s] + d * kBlockRows), q);
          const float32x4_t d1 = vsubq_f32(vld1q_f32(slab[s] + d * kBlockRows + 4), q);
          lo[s] = vfmaq_f32(lo[s], d0, d0);
          hi[s] = vfmaq_f32(hi[s], d1, d1);
        }
      }
      break;
    case MetricKind::kCosine:
      for (std::size_t d = 0; d < dim; ++d) {
        const float32x4_t q = vdupq_n_f32(query[d]);
        for (std::size_t s = 0; s < N; ++s) {
          lo[s] = vfmaq_f32(lo[s], vld1q_f32(slab[s] + d * kBlockRows), q);
          hi[s] = vfmaq_f32(hi[s], vld1q_f32(slab[s] + d * kBlockRows + 4), q);
        }
      }
      break;
    case MetricKind::kManhattan:
      for (std::size_t d = 0; d < dim; ++d) {
        const float32x4_t q = vdupq_n_f32(query[d]);
        for (std::size_t s = 0; s < N; ++s) {
          lo[s] = vaddq_f32(lo[s], vabsq_f32(vsubq_f32(vld1q_f32(slab[s] + d * kBlockRows), q)));
          hi[s] = vaddq_f32(hi[s],
                            vabsq_f32(vsubq_f32(vld1q_f32(slab[s] + d * kBlockRows + 4), q)));
        }
      }
      break;
    case MetricKind::kLinf:
      // vmaxnmq returns the number when one operand is a quiet NaN, so a
      // NaN |diff| keeps the running max, as the scalar reference does.
      for (std::size_t d = 0; d < dim; ++d) {
        const float32x4_t q = vdupq_n_f32(query[d]);
        for (std::size_t s = 0; s < N; ++s) {
          lo[s] = vmaxnmq_f32(lo[s], vabsq_f32(vsubq_f32(vld1q_f32(slab[s] + d * kBlockRows), q)));
          hi[s] = vmaxnmq_f32(hi[s],
                              vabsq_f32(vsubq_f32(vld1q_f32(slab[s] + d * kBlockRows + 4), q)));
        }
      }
      break;
  }
  for (std::size_t s = 0; s < N; ++s) {
    vst1q_f32(acc + s * kBlockRows, lo[s]);
    vst1q_f32(acc + s * kBlockRows + 4, hi[s]);
  }
}

// A whole call: groups of four slabs (eight q-register chains), then one
// group of the 1-3 left over.
void neon_block_accum(MetricKind kind, const float* const* slabs, std::size_t count,
                      const float* query, std::size_t dim, float* acc) {
  std::size_t s = 0;
  for (; s + 4 <= count; s += 4) {
    accum_slabs<4>(kind, slabs + s, query, dim, acc + s * kBlockRows);
  }
  const float* const* rest = slabs + s;
  float* out = acc + s * kBlockRows;
  switch (count - s) {
    case 1: accum_slabs<1>(kind, rest, query, dim, out); break;
    case 2: accum_slabs<2>(kind, rest, query, dim, out); break;
    case 3: accum_slabs<3>(kind, rest, query, dim, out); break;
    default: break;
  }
}

std::int32_t neon_dot_i8(const std::int8_t* a, const std::int8_t* b, std::size_t n) {
  int32x4_t acc = vdupq_n_s32(0);
  for (std::size_t i = 0; i < n; i += 16) {
    const int8x16_t va = vld1q_s8(a + i);
    const int8x16_t vb = vld1q_s8(b + i);
    const int16x8_t p_lo = vmull_s8(vget_low_s8(va), vget_low_s8(vb));
    const int16x8_t p_hi = vmull_s8(vget_high_s8(va), vget_high_s8(vb));
    acc = vpadalq_s16(acc, p_lo);
    acc = vpadalq_s16(acc, p_hi);
  }
  return vaddvq_s32(acc);
}

constexpr KernelOps kNeonOps{"neon", "neon+int8", neon_block_accum, neon_dot_i8};

}  // namespace

const KernelOps* neon_ops() noexcept { return &kNeonOps; }

}  // namespace mcam::distance::kernels

#else  // target is not aarch64: provider reports "absent".

namespace mcam::distance::kernels {

const KernelOps* neon_ops() noexcept { return nullptr; }

}  // namespace mcam::distance::kernels

#endif
