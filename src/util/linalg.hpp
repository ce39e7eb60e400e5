// Small dense-vector helpers shared by the encoders, distance metrics and
// the ML substrate. Feature vectors across the library are
// std::vector<float>; these helpers keep the hot loops in one place.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace mcam {

/// Dot product of two equal-length spans (undefined if lengths differ;
/// asserted in debug builds).
[[nodiscard]] float dot(std::span<const float> a, std::span<const float> b) noexcept;

/// Euclidean norm of `a`.
[[nodiscard]] float norm2(std::span<const float> a) noexcept;

/// Squared Euclidean distance between `a` and `b`.
[[nodiscard]] float squared_distance(std::span<const float> a, std::span<const float> b) noexcept;

/// In-place L2 normalization; leaves zero vectors untouched.
void l2_normalize(std::span<float> a) noexcept;

/// y += alpha * x.
void axpy(float alpha, std::span<const float> x, std::span<float> y) noexcept;

/// Index of the smallest element; 0 for an empty span.
[[nodiscard]] std::size_t argmin(std::span<const double> xs) noexcept;

/// Order-preserving image of a double as an unsigned key, the one order
/// every ranking in the library compares. For non-NaN a and b, a < b iff
/// order_key(a) < order_key(b), and a == b iff their keys are equal, so
/// -0.0 and +0.0 share a key. Every NaN maps to one key, ranked after
/// +inf.
[[nodiscard]] inline std::uint64_t order_key(double x) noexcept {
  // x + 0.0 folds -0.0 onto +0.0 and leaves every other value unchanged.
  const auto bits = std::bit_cast<std::uint64_t>(x + 0.0);
  // Negative values flip every bit, the rest set the sign bit: arithmetic
  // and a select, so mixed-sign and NaN keys cost no mispredicts.
  const std::uint64_t key = bits ^ ((std::uint64_t{0} - (bits >> 63)) | (std::uint64_t{1} << 63));
  return std::isnan(x) ? std::uint64_t{0xFFF8'0000'0000'0000} : key;
}

/// Indices of the k smallest keys, ascending with low-index tie-break (the
/// argmin convention); k is clamped to keys.size(). One branch-free pass
/// gathers the keys at or below a cut on the k-th smallest key (the
/// largest of k group minima while k is below about sqrt(n), else a
/// sampled order statistic that rises until k keys are gathered), and a
/// stable sort of what it gathered - a counting sort when the keys take at
/// most 128 values, else a radix sort - ranks them. Every choice returns
/// the same (key, index) prefix.
[[nodiscard]] std::vector<std::size_t> argsort_top_k(std::span<const std::uint64_t> keys,
                                                     std::size_t k);

/// argsort_top_k over the order_key images of xs: ascending, ties to the
/// lower index, NaN after +inf.
[[nodiscard]] std::vector<std::size_t> argsort_top_k(std::span<const double> xs,
                                                     std::size_t k);

/// Index of the largest element; 0 for an empty span.
[[nodiscard]] std::size_t argmax(std::span<const double> xs) noexcept;

/// Index of the largest float element; 0 for an empty span.
[[nodiscard]] std::size_t argmax_f(std::span<const float> xs) noexcept;

}  // namespace mcam
