// Batch distance kernels for the serving-side rerank hot path.
//
// The fine stage of the two-stage pipeline (and every software backend's
// `query_subset`) reranks a candidate set in FP32; doing that through the
// type-erased `distance::Metric` functor costs an indirect call and a
// scalar loop per row. This layer computes query-vs-block distances over
// the cache-blocked SoA slabs of `RowStore` (row_store.hpp) - one call per
// up to `kMaxBlocksPerCall` slabs of `kBlockRows` rows - with AVX2
// (x86-64) / NEON (aarch64) intrinsics behind runtime dispatch, plus a
// portable scalar kernel that is the bit-exact reference:
//
//  - Per lane, every backend accumulates in the same order (feature 0..d-1,
//    FP32, fused multiply-add for the squared/dot accumulators), so the
//    scalar and SIMD kernels produce *bit-identical* accumulators and
//    therefore bit-identical top-k orderings. Each slab of a call has its
//    own accumulator chain, so a SIMD backend overlaps several FMA latency
//    chains (eight on AVX2, four on NEON) without reordering any lane's
//    sum. MCAM_FORCE_SCALAR=1 (env, read at startup) or `set_force_scalar`
//    pins the scalar kernel.
//  - The int8 kernel computes symmetric int8 dot products with i32
//    accumulation over per-block max-abs-scaled codes - the same
//    per-block-range level mapping the MCAM quantizer
//    (encoding/quantizer.hpp) applies per feature, so the hardware and
//    software quantized-distance stories stay one model. Integer
//    arithmetic is exact, so scalar and SIMD int8 orderings are identical
//    by construction.
//
// Accumulators are finalized to the `double` distances of
// distance/metrics.hpp by `finalize` (shared, scalar), so kernel results
// are directly comparable with the free functions up to FP32 accumulation
// order. Where `finalize` is monotone in the accumulator alone
// (`ranks_on_accumulator`), a ranking may compare raw accumulators and
// finalize only the rows it returns.
#pragma once

#include "distance/metrics.hpp"

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace mcam::distance::kernels {

/// Rows per cache block = lanes per slab of a `block_accum` call (one AVX2
/// ymm register of floats; two NEON q registers).
inline constexpr std::size_t kBlockRows = 8;

/// Most slabs one `block_accum` call scores: the chunk a caller gathers
/// into a stack buffer. Each slab carries its own accumulator chain, and a
/// backend runs them in groups (eight on AVX2, four on NEON), so both AVX2
/// FMA ports stay busy where one slab would wait out the FMA latency at
/// every feature. Chunks of 16, 32 and 64 slabs scored the end-to-end
/// shapes within noise of each other (x86-64 Xeon, AVX2); 16 had the
/// lowest minimum on every shape.
inline constexpr std::size_t kMaxBlocksPerCall = 16;

/// int8 code rows are padded to this many bytes (one full SIMD vector), so
/// the dot kernels never need a scalar tail. Padding codes are zero and
/// contribute nothing.
inline constexpr std::size_t kCodeAlign = 32;

/// Candidates rescored in exact FP32 beyond the requested k on the int8
/// path: the int8 ordering nominates k + slack rows, the FP32 rescore
/// picks and scores the final top-k.
inline constexpr std::size_t kInt8RescoreSlack = 16;

/// One instruction-set backend. `block_accum` scores `count` (1 to
/// kMaxBlocksPerCall) SoA slabs, `slabs[s][d * kBlockRows + lane]`, which
/// need not be adjacent, and writes `count * kBlockRows` per-lane
/// accumulators, `acc[s * kBlockRows + lane]`. Each lane adds its own
/// features in index order, starting from +0: sum of fma(diff, diff) for
/// kEuclidean/kSquaredEuclidean, sum of fma(v, q) for kCosine, sum |diff|
/// for kManhattan, and for kLinf `acc = |diff| > acc ? |diff| : acc`, so a
/// NaN feature leaves the max unchanged, as in `distance::linf`. Every
/// backend returns the scalar reference's bits.
/// `dot_i8` is the symmetric int8 dot with i32 accumulation over
/// kCodeAlign-padded row-major codes (`n` must be a multiple of
/// kCodeAlign).
struct KernelOps {
  const char* name;       ///< Telemetry tag: "scalar" | "avx2" | "neon".
  const char* int8_name;  ///< Telemetry tag of the int8 path, e.g. "avx2+int8".
  void (*block_accum)(MetricKind kind, const float* const* slabs, std::size_t count,
                      const float* query, std::size_t dim, float* acc);
  std::int32_t (*dot_i8)(const std::int8_t* a, const std::int8_t* b, std::size_t n);
};

/// The portable reference kernel (always available).
[[nodiscard]] const KernelOps& scalar_ops() noexcept;

/// The dispatched kernel: the best instruction set the host supports
/// (CPUID probe on x86-64; NEON is baseline on aarch64), or the scalar
/// reference when forced (MCAM_FORCE_SCALAR / set_force_scalar) or when
/// nothing better is available.
[[nodiscard]] const KernelOps& active_ops() noexcept;

/// Pins `active_ops` to the scalar reference (test/bench hook; the
/// MCAM_FORCE_SCALAR environment variable sets the initial state). The one
/// switch for every dispatched backend: it also pins the CAM sweeps
/// (cam/kernels/kernels.hpp) and the signature models' matrix products
/// (sig/products.hpp) to their baseline loops.
void set_force_scalar(bool force) noexcept;

/// Current force-scalar state, which each dispatcher reads per call.
[[nodiscard]] bool force_scalar() noexcept;

/// Finalizes one lane accumulator to the metric's double distance:
/// sqrt for kEuclidean, 1 - acc / (|q| |row|) for kCosine (1.0 when either
/// norm is zero), the accumulator itself otherwise.
[[nodiscard]] double finalize(MetricKind kind, float acc, double query_norm,
                              double row_norm) noexcept;

/// True when `finalize` is strictly increasing in the accumulator alone,
/// NaN mapping to NaN: every metric but kCosine, whose row norm divides.
/// `sqrt` is strictly increasing on the doubles of floats, so ranking such
/// a metric's raw accumulators gives the order, ties and NaN placement of
/// its finalized distances.
[[nodiscard]] constexpr bool ranks_on_accumulator(MetricKind kind) noexcept {
  return kind != MetricKind::kCosine;
}

/// Query-side norm needed by `finalize` (kCosine only; 0.0 otherwise),
/// accumulated in the kernels' per-lane order so cosine distances match
/// the row norms RowStore precomputes.
[[nodiscard]] double query_norm(MetricKind kind, std::span<const float> query) noexcept;

/// Exact FP32 squared norm of `query` in the kernels' accumulation order
/// (the ||q||^2 term of the int8 L2 reconstruction).
[[nodiscard]] double query_sq_norm(std::span<const float> query) noexcept;

/// True when the int8 path covers `kind`: the dot/L2 reconstructions
/// (kEuclidean, kSquaredEuclidean, kCosine). kManhattan/kLinf rerank in
/// FP32 even under rerank=int8.
[[nodiscard]] bool int8_supported(MetricKind kind) noexcept;

/// A query quantized for the symmetric int8 kernels: per-query max-abs
/// scale, codes kCodeAlign-padded with zeros.
struct QueryCodes {
  std::vector<std::int8_t> codes;
  float scale = 0.0f;  ///< value ~= code * scale; 0 for an all-zero query.
};

/// Quantizes `query` with its own max-abs scale (the symmetric twin of
/// RowStore's per-block row scales).
[[nodiscard]] QueryCodes quantize_query(std::span<const float> query);

/// Per-architecture providers (defined in kernels_avx2.cpp /
/// kernels_neon.cpp; nullptr when not compiled for this target). Exposed
/// so tests can assert against a specific backend where available.
[[nodiscard]] const KernelOps* avx2_ops() noexcept;
[[nodiscard]] const KernelOps* neon_ops() noexcept;

}  // namespace mcam::distance::kernels
