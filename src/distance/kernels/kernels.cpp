#include "distance/kernels/kernels.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <string_view>

namespace mcam::distance::kernels {

namespace {

// The scalar reference, one slab. Per lane this is exactly the operation
// sequence the SIMD backends vectorize - same feature order, same fused
// multiply-add, same abs/max semantics - so its accumulators are
// bit-identical to theirs and every identity test can diff against it.
void scalar_slab_accum(MetricKind kind, const float* slab, const float* query,
                       std::size_t dim, float* acc) {
  for (std::size_t lane = 0; lane < kBlockRows; ++lane) acc[lane] = 0.0f;
  switch (kind) {
    case MetricKind::kEuclidean:
    case MetricKind::kSquaredEuclidean:
      for (std::size_t d = 0; d < dim; ++d) {
        const float q = query[d];
        const float* v = slab + d * kBlockRows;
        for (std::size_t lane = 0; lane < kBlockRows; ++lane) {
          const float diff = v[lane] - q;
          acc[lane] = std::fma(diff, diff, acc[lane]);
        }
      }
      break;
    case MetricKind::kCosine:
      for (std::size_t d = 0; d < dim; ++d) {
        const float q = query[d];
        const float* v = slab + d * kBlockRows;
        for (std::size_t lane = 0; lane < kBlockRows; ++lane) {
          acc[lane] = std::fma(v[lane], q, acc[lane]);
        }
      }
      break;
    case MetricKind::kManhattan:
      for (std::size_t d = 0; d < dim; ++d) {
        const float q = query[d];
        const float* v = slab + d * kBlockRows;
        for (std::size_t lane = 0; lane < kBlockRows; ++lane) {
          acc[lane] += std::fabs(v[lane] - q);
        }
      }
      break;
    case MetricKind::kLinf:
      for (std::size_t d = 0; d < dim; ++d) {
        const float q = query[d];
        const float* v = slab + d * kBlockRows;
        for (std::size_t lane = 0; lane < kBlockRows; ++lane) {
          const float diff = std::fabs(v[lane] - q);
          if (diff > acc[lane]) acc[lane] = diff;
        }
      }
      break;
  }
}

void scalar_block_accum(MetricKind kind, const float* const* slabs, std::size_t count,
                        const float* query, std::size_t dim, float* acc) {
  for (std::size_t s = 0; s < count; ++s) {
    scalar_slab_accum(kind, slabs[s], query, dim, acc + s * kBlockRows);
  }
}

std::int32_t scalar_dot_i8(const std::int8_t* a, const std::int8_t* b, std::size_t n) {
  std::int32_t sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
  }
  return sum;
}

constexpr KernelOps kScalarOps{"scalar", "scalar+int8", scalar_block_accum,
                               scalar_dot_i8};

/// Best host-supported backend, probed once. The AVX2 provider is only
/// used when the CPU reports both AVX2 and FMA (every AVX2 part since
/// Haswell; the pair is what the per-file -mavx2 -mfma build assumes).
const KernelOps* probe_best() noexcept {
  if (const KernelOps* neon = neon_ops()) return neon;
#if (defined(__x86_64__) || defined(_M_X64)) && (defined(__GNUC__) || defined(__clang__))
  if (const KernelOps* avx2 = avx2_ops()) {
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) return avx2;
  }
#endif
  return &kScalarOps;
}

std::atomic<bool>& force_flag() noexcept {
  static std::atomic<bool> flag{[] {
    const char* env = std::getenv("MCAM_FORCE_SCALAR");
    return env != nullptr && *env != '\0' && std::string_view{env} != "0";
  }()};
  return flag;
}

}  // namespace

const KernelOps& scalar_ops() noexcept { return kScalarOps; }

// The force flag uses the seq_cst defaults: it flips only in tests and
// benches, so the cross-thread publication guarantee is worth more than
// the (unmeasurable) cost of the stronger ordering on the query path.
const KernelOps& active_ops() noexcept {
  static const KernelOps* best = probe_best();
  return force_flag().load() ? kScalarOps : *best;
}

void set_force_scalar(bool force) noexcept { force_flag().store(force); }

bool force_scalar() noexcept { return force_flag().load(); }

double finalize(MetricKind kind, float acc, double query_norm, double row_norm) noexcept {
  switch (kind) {
    case MetricKind::kEuclidean:
      return std::sqrt(static_cast<double>(acc));
    case MetricKind::kSquaredEuclidean:
    case MetricKind::kManhattan:
    case MetricKind::kLinf:
      return static_cast<double>(acc);
    case MetricKind::kCosine:
      if (query_norm <= 0.0 || row_norm <= 0.0) return 1.0;
      return 1.0 - static_cast<double>(acc) / (query_norm * row_norm);
  }
  return static_cast<double>(acc);
}

double query_sq_norm(std::span<const float> query) noexcept {
  float acc = 0.0f;
  for (const float v : query) acc = std::fma(v, v, acc);
  return static_cast<double>(acc);
}

double query_norm(MetricKind kind, std::span<const float> query) noexcept {
  if (kind != MetricKind::kCosine) return 0.0;
  return std::sqrt(query_sq_norm(query));
}

bool int8_supported(MetricKind kind) noexcept {
  return kind == MetricKind::kEuclidean || kind == MetricKind::kSquaredEuclidean ||
         kind == MetricKind::kCosine;
}

QueryCodes quantize_query(std::span<const float> query) {
  QueryCodes out;
  float max_abs = 0.0f;
  for (const float v : query) {
    const float a = std::fabs(v);
    if (a > max_abs) max_abs = a;
  }
  const std::size_t padded = (query.size() + kCodeAlign - 1) / kCodeAlign * kCodeAlign;
  out.codes.assign(padded, 0);
  if (max_abs <= 0.0f) return out;  // All-zero query: scale 0, codes 0.
  out.scale = max_abs / 127.0f;
  for (std::size_t i = 0; i < query.size(); ++i) {
    const long code = std::lrintf(query[i] / out.scale);
    out.codes[i] = static_cast<std::int8_t>(code < -127 ? -127 : (code > 127 ? 127 : code));
  }
  return out;
}

}  // namespace mcam::distance::kernels
