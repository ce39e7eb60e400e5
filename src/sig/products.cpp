#include "sig/products.hpp"

#include "distance/kernels/kernels.hpp"

#include <algorithm>
#include <span>

namespace mcam::sig::products {

/// The AVX2 unit's backend (products_avx2.cpp), or nullptr when that unit
/// is not compiled for AVX2. Called only after the CPUID probe.
const ProductOps* compiled_avx2_ops() noexcept;

namespace {

/// out = x^T mat for a row-major [x.size() x width] `mat`. Each output adds
/// its products x[c] * mat(c, b) in ascending c from +0.0f, so it equals the
/// one-output dot product bit for bit. The loop runs across the outputs over
/// one contiguous row of `mat` at a time, which the compiler vectorizes
/// without reassociating any output's sum. Blocks of kBlock outputs keep
/// their sums in registers for the whole pass over x; the last
/// width % kBlock outputs add in place.
void vec_mat(std::span<const float> x, const float* mat, std::size_t width, float* out) {
  constexpr std::size_t kBlock = 16;
  const std::size_t full = width - width % kBlock;
  for (std::size_t b0 = 0; b0 < full; b0 += kBlock) {
    float acc[kBlock] = {};
    for (std::size_t c = 0; c < x.size(); ++c) {
      const float xc = x[c];
      const float* row = mat + c * width + b0;
      for (std::size_t k = 0; k < kBlock; ++k) acc[k] += xc * row[k];
    }
    std::copy_n(acc, kBlock, out + b0);
  }
  if (full == width) return;
  std::fill(out + full, out + width, 0.0f);
  for (std::size_t c = 0; c < x.size(); ++c) {
    const float xc = x[c];
    const float* row = mat + c * width;
    for (std::size_t b = full; b < width; ++b) out[b] += xc * row[b];
  }
}

void scalar_mat_mul(const float* x, std::size_t rows, std::size_t len, const float* mat,
                    std::size_t width, float* out) {
  for (std::size_t r = 0; r < rows; ++r) vec_mat({x + r * len, len}, mat, width, out + r * width);
}

constexpr ProductOps kScalarOps{"scalar", scalar_mat_mul};

}  // namespace

const ProductOps& scalar_ops() noexcept { return kScalarOps; }

const ProductOps* avx2_ops() noexcept {
#if (defined(__x86_64__) || defined(_M_X64)) && (defined(__GNUC__) || defined(__clang__))
  static const ProductOps* ops =
      __builtin_cpu_supports("avx2") ? compiled_avx2_ops() : nullptr;
  return ops;
#else
  return nullptr;
#endif
}

const ProductOps& active_ops() noexcept {
  static const ProductOps* best = avx2_ops() != nullptr ? avx2_ops() : &kScalarOps;
  return distance::kernels::force_scalar() ? kScalarOps : *best;
}

}  // namespace mcam::sig::products
