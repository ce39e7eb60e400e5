#include "encoding/normalize.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace mcam::encoding {

namespace {

void require_rows(std::span<const std::vector<float>> rows) {
  if (rows.empty()) throw std::invalid_argument{"FeatureScaler: no rows to fit"};
  const std::size_t width = rows.front().size();
  if (width == 0) throw std::invalid_argument{"FeatureScaler: zero-width rows"};
  for (const auto& row : rows) {
    if (row.size() != width) throw std::invalid_argument{"FeatureScaler: ragged rows"};
    for (std::size_t f = 0; f < width; ++f) {
      if (!std::isfinite(row[f])) {
        throw std::invalid_argument{"FeatureScaler: non-finite value at feature " +
                                    std::to_string(f)};
      }
    }
  }
}

}  // namespace

FeatureScaler FeatureScaler::fit_min_max(std::span<const std::vector<float>> rows) {
  require_rows(rows);
  const std::size_t width = rows.front().size();
  FeatureScaler scaler;
  scaler.offset_.assign(width, std::numeric_limits<float>::max());
  std::vector<float> maxima(width, std::numeric_limits<float>::lowest());
  for (const auto& row : rows) {
    for (std::size_t f = 0; f < width; ++f) {
      scaler.offset_[f] = std::min(scaler.offset_[f], row[f]);
      maxima[f] = std::max(maxima[f], row[f]);
    }
  }
  scaler.scale_.resize(width);
  for (std::size_t f = 0; f < width; ++f) {
    const float range = maxima[f] - scaler.offset_[f];
    scaler.scale_[f] = range > 0.0f ? range : 1.0f;
  }
  return scaler;
}

FeatureScaler FeatureScaler::fit_z_score(std::span<const std::vector<float>> rows) {
  require_rows(rows);
  const std::size_t width = rows.front().size();
  const auto n = static_cast<float>(rows.size());
  FeatureScaler scaler;
  scaler.offset_.assign(width, 0.0f);
  scaler.scale_.assign(width, 0.0f);
  for (const auto& row : rows) {
    for (std::size_t f = 0; f < width; ++f) scaler.offset_[f] += row[f];
  }
  for (std::size_t f = 0; f < width; ++f) scaler.offset_[f] /= n;
  for (const auto& row : rows) {
    for (std::size_t f = 0; f < width; ++f) {
      const float d = row[f] - scaler.offset_[f];
      scaler.scale_[f] += d * d;
    }
  }
  for (std::size_t f = 0; f < width; ++f) {
    const float sd = rows.size() > 1 ? std::sqrt(scaler.scale_[f] / (n - 1.0f)) : 0.0f;
    scaler.scale_[f] = sd > 0.0f ? sd : 1.0f;
  }
  return scaler;
}

FeatureScaler FeatureScaler::from_state(std::vector<float> offsets,
                                        std::vector<float> scales) {
  if (offsets.empty() || offsets.size() != scales.size()) {
    throw std::invalid_argument{"FeatureScaler::from_state: bad state size"};
  }
  if (!std::all_of(offsets.begin(), offsets.end(), [](float o) { return std::isfinite(o); })) {
    throw std::invalid_argument{"FeatureScaler::from_state: non-finite offset"};
  }
  for (float s : scales) {
    if (s == 0.0f || !std::isfinite(s)) {
      throw std::invalid_argument{"FeatureScaler::from_state: bad scale"};
    }
  }
  FeatureScaler scaler;
  scaler.offset_ = std::move(offsets);
  scaler.scale_ = std::move(scales);
  return scaler;
}

std::vector<float> FeatureScaler::transform(std::span<const float> row) const {
  if (row.size() != offset_.size()) {
    throw std::invalid_argument{"FeatureScaler::transform: width mismatch"};
  }
  std::vector<float> out(row.size());
  for (std::size_t f = 0; f < row.size(); ++f) out[f] = (row[f] - offset_[f]) / scale_[f];
  return out;
}

std::vector<std::vector<float>> FeatureScaler::transform_all(
    std::span<const std::vector<float>> rows) const {
  std::vector<std::vector<float>> out;
  out.reserve(rows.size());
  for (const auto& row : rows) out.push_back(transform(row));
  return out;
}

}  // namespace mcam::encoding
