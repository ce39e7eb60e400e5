// AVX2 backend of the signature models' matrix products. This translation
// unit is the only sig code compiled with -mavx2, and it gets no -mfma and
// -ffp-contract=off: a fused `acc + x * m` rounds once where the baseline
// loop rounds twice, which would move the fitted planes off their goldens.
// The rest of the library stays at the baseline ISA, and products.cpp
// calls into this unit only after a CPUID probe reports AVX2.
#include "sig/products.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace mcam::sig::products {

namespace {

// The kernels below use no standard-library templates: an out-of-line copy
// compiled in this unit could be picked by the linker for the baseline
// units too.

/// Outputs per vector.
constexpr std::size_t kLanes = 8;

/// Rows [0, kRows) of `x` times kVecs vectors of outputs, starting at
/// `mat`'s column 0, of which the last holds `tail` (1 to kLanes) outputs.
/// Each output keeps its own accumulator, and every step adds x * m to it
/// as the baseline loop does, so no sum is reordered; the kRows * kVecs
/// accumulators are independent add chains.
template <std::size_t kRows, std::size_t kVecs>
void block(const float* x, std::size_t len, const float* mat, std::size_t width, float* out,
           std::size_t tail) {
  const __m256i last = _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(tail)),
                                          _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  __m256 acc[kRows][kVecs];
  for (auto& row : acc) {
    for (auto& a : row) a = _mm256_setzero_ps();
  }
  for (std::size_t c = 0; c < len; ++c) {
    const float* mat_row = mat + c * width;
    __m256 m[kVecs];
    for (std::size_t v = 0; v + 1 < kVecs; ++v) m[v] = _mm256_loadu_ps(mat_row + v * kLanes);
    const float* last_vec = mat_row + (kVecs - 1) * kLanes;
    m[kVecs - 1] = tail == kLanes ? _mm256_loadu_ps(last_vec) : _mm256_maskload_ps(last_vec, last);
    for (std::size_t r = 0; r < kRows; ++r) {
      const __m256 xc = _mm256_broadcast_ss(x + r * len + c);
      for (std::size_t v = 0; v < kVecs; ++v) {
        acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(xc, m[v]));
      }
    }
  }
  for (std::size_t r = 0; r < kRows; ++r) {
    float* out_row = out + r * width;
    for (std::size_t v = 0; v + 1 < kVecs; ++v) _mm256_storeu_ps(out_row + v * kLanes, acc[r][v]);
    _mm256_maskstore_ps(out_row + (kVecs - 1) * kLanes, last, acc[r][kVecs - 1]);
  }
}

/// Rows [0, kRows) of `x` times `mat`: 16 outputs per pass, then the last
/// width % 16 in vectors of 8, the final one masked.
template <std::size_t kRows>
void rows_times(const float* x, std::size_t len, const float* mat, std::size_t width,
                float* out) {
  constexpr std::size_t kBlock = 2 * kLanes;
  std::size_t b = 0;
  for (; b + kBlock <= width; b += kBlock) block<kRows, 2>(x, len, mat + b, width, out + b, kLanes);
  for (; b < width; b += kLanes) {
    const std::size_t tail = width - b < kLanes ? width - b : kLanes;
    block<kRows, 1>(x, len, mat + b, width, out + b, tail);
  }
}

/// Three rows per pass over `mat` (six add chains per 16 outputs), then
/// the last rows % 3 one at a time. Three measured 10-15% faster than two
/// or four on the itq fit's shapes (x86-64 Xeon, GCC 12).
void avx2_mat_mul(const float* x, std::size_t rows, std::size_t len, const float* mat,
                  std::size_t width, float* out) {
  constexpr std::size_t kRows = 3;
  std::size_t r = 0;
  for (; r + kRows <= rows; r += kRows) {
    rows_times<kRows>(x + r * len, len, mat, width, out + r * width);
  }
  for (; r < rows; ++r) rows_times<1>(x + r * len, len, mat, width, out + r * width);
}

constexpr ProductOps kAvx2Ops{"avx2", avx2_mat_mul};

}  // namespace

const ProductOps* compiled_avx2_ops() noexcept { return &kAvx2Ops; }

}  // namespace mcam::sig::products

#else  // target does not compile AVX2: the probe finds no backend.

namespace mcam::sig::products {

const ProductOps* compiled_avx2_ops() noexcept { return nullptr; }

}  // namespace mcam::sig::products

#endif
