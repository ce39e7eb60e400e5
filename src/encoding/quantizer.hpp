// Uniform feature quantization for the MCAM path (paper Sec. IV-A).
//
// "The real-valued features of the query and memory entries are quantized
// to the same bit precision as the MCAM" - each feature maps to one of 2^B
// levels, giving a one-to-one correspondence between feature levels and
// MCAM cell states / input voltages. The quantizer fits its per-feature
// range on the training data (optionally with percentile clipping so
// outliers don't waste levels) and is then applied to both memory entries
// and queries.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace mcam::encoding {

/// Per-feature uniform quantizer to B-bit levels.
class UniformQuantizer {
 public:
  /// Fits the per-feature range [lo, hi] on `rows`.
  /// `clip_percentile` in [0, 50): clip the range to the
  /// [p, 100-p] percentiles to shed outliers; 0 = exact min/max.
  /// A bound at either end of a sorted column (both, at clip 0) costs one
  /// pass over the rows for all features; only a bound between the ends
  /// gathers each column and runs a selection (std::nth_element) on it.
  /// Throws std::invalid_argument on ragged rows, then naming the lowest
  /// feature index that holds a NaN or infinite value.
  [[nodiscard]] static UniformQuantizer fit(std::span<const std::vector<float>> rows,
                                            unsigned bits, double clip_percentile = 0.0);

  /// Rebuilds a quantizer from previously fitted state (`lows()` /
  /// `highs()`), the snapshot-restore path: quantizes bit-identically to
  /// the quantizer it was exported from. Throws std::invalid_argument on
  /// bits outside [1, 16], mismatched sizes, a non-finite bound, or any
  /// hi <= lo.
  [[nodiscard]] static UniformQuantizer from_state(unsigned bits, std::vector<float> lo,
                                                   std::vector<float> hi);

  /// Quantizes one vector to levels in [0, 2^bits); values outside the
  /// fitted range saturate. Throws std::invalid_argument naming the
  /// feature index when a value is NaN or infinite.
  [[nodiscard]] std::vector<std::uint16_t> quantize(std::span<const float> row) const;

  /// Quantizes every row.
  [[nodiscard]] std::vector<std::vector<std::uint16_t>> quantize_all(
      std::span<const std::vector<float>> rows) const;

  /// Reconstructs the level centers (inverse map; used by tests to bound
  /// quantization error at half a step).
  [[nodiscard]] std::vector<float> dequantize(std::span<const std::uint16_t> levels) const;

  /// Bits per feature.
  [[nodiscard]] unsigned bits() const noexcept { return bits_; }
  /// Number of levels (2^bits).
  [[nodiscard]] std::uint16_t num_levels() const noexcept {
    return static_cast<std::uint16_t>(1u << bits_);
  }
  /// Number of features.
  [[nodiscard]] std::size_t num_features() const noexcept { return lo_.size(); }
  /// Fitted per-feature range bottoms (the serializable calibration state).
  [[nodiscard]] const std::vector<float>& lows() const noexcept { return lo_; }
  /// Fitted per-feature range tops.
  [[nodiscard]] const std::vector<float>& highs() const noexcept { return hi_; }

 private:
  unsigned bits_ = 0;
  std::vector<float> lo_;
  std::vector<float> hi_;
};

}  // namespace mcam::encoding
