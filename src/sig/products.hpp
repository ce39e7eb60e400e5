// The signature models' matrix products: out = x mat, with `x`, `mat` and
// `out` row-major. Every fit spends most of its time here: the ITQ passes'
// V R and V^T B, the polar factor's three products, the per-row PCA
// projections and power iteration. `SignatureModel::project` is the same
// product over one row.
//
// Bit-identity contract (tests/test_sig.cpp): every backend gives output
// (r, b) the baseline loop's sum, x(r, c) * mat(c, b) added in ascending c
// from +0.0f with a separate multiply and add. So the fitted planes, and
// every signature, are the same bits on every backend. The AVX2 unit is
// built without FMA (and with -ffp-contract=off): a fused multiply-add
// rounds once where the baseline rounds twice. The one freedom left is
// which NaN an operation returns when both operands are NaNs of different
// signs or payloads; IEEE 754 leaves that open, and the compiled operand
// order decides it. A NaN output is a NaN on every backend.
//
// Dispatch reuses the rerank kernels' switch: a CPUID probe picks the AVX2
// backend once, and MCAM_FORCE_SCALAR=1 (read at startup) or
// `distance::kernels::set_force_scalar` pins the baseline loop.
#pragma once

#include <cstddef>

namespace mcam::sig::products {

/// One instruction-set backend.
struct ProductOps {
  const char* name;  ///< Telemetry tag: "scalar" | "avx2".
  /// out = x mat for a [rows x len] `x`, a [len x width] `mat` and a
  /// [rows x width] `out`, all row-major and dense.
  void (*mat_mul)(const float* x, std::size_t rows, std::size_t len, const float* mat,
                  std::size_t width, float* out);
};

/// The baseline loop (always available): one row of `x` at a time, 16
/// outputs per pass over `mat`.
[[nodiscard]] const ProductOps& scalar_ops() noexcept;

/// The AVX2 backend, or nullptr when it is not compiled for this target or
/// the host CPU lacks AVX2 (so tests can compare it against the baseline
/// where it exists). It takes three rows of `x` per pass over `mat`, which
/// gives the adds three times the independent chains.
[[nodiscard]] const ProductOps* avx2_ops() noexcept;

/// The dispatched backend: the best the host supports, or the baseline
/// loop while `distance::kernels::force_scalar()` holds.
[[nodiscard]] const ProductOps& active_ops() noexcept;

}  // namespace mcam::sig::products
