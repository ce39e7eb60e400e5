// Feature normalization fitted on training data and applied to queries.
//
// The MCAM path quantizes features to B bits over a fixed range, the
// TCAM+LSH path projects real vectors onto random hyperplanes, and the
// software baselines use raw features; all three expect features scaled
// consistently between memory entries and queries, so the scalers here fit
// on the training split only (no test-set leakage).
#pragma once

#include <span>
#include <vector>

namespace mcam::encoding {

/// Per-feature affine scaler x' = (x - offset) / scale.
class FeatureScaler {
 public:
  /// Fits min-max scaling to [0, 1]: offset = min, scale = max - min.
  /// Both fits throw std::invalid_argument on no rows, zero-width or
  /// ragged rows, or a non-finite value (the message names the feature).
  [[nodiscard]] static FeatureScaler fit_min_max(
      std::span<const std::vector<float>> rows);

  /// Fits z-score scaling: offset = mean, scale = stddev.
  [[nodiscard]] static FeatureScaler fit_z_score(
      std::span<const std::vector<float>> rows);

  /// Rebuilds a scaler from previously fitted state (`offsets()` /
  /// `scales()`), the snapshot-restore path: the rebuilt scaler transforms
  /// bit-identically to the one it was exported from. Throws
  /// std::invalid_argument on mismatched sizes, empty state, a non-finite
  /// offset, or a zero or non-finite scale.
  [[nodiscard]] static FeatureScaler from_state(std::vector<float> offsets,
                                                std::vector<float> scales);

  /// Applies the scaling to one vector (copies).
  [[nodiscard]] std::vector<float> transform(std::span<const float> row) const;

  /// Applies the scaling to every row (copies).
  [[nodiscard]] std::vector<std::vector<float>> transform_all(
      std::span<const std::vector<float>> rows) const;

  /// Number of features the scaler was fitted on.
  [[nodiscard]] std::size_t num_features() const noexcept { return offset_.size(); }

  /// Fitted offsets (min or mean per feature).
  [[nodiscard]] const std::vector<float>& offsets() const noexcept { return offset_; }
  /// Fitted scales (range or stddev per feature; zero-ranges become 1).
  [[nodiscard]] const std::vector<float>& scales() const noexcept { return scale_; }

 private:
  std::vector<float> offset_;
  std::vector<float> scale_;
};

}  // namespace mcam::encoding
