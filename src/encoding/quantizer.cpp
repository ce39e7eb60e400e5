#include "encoding/quantizer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace mcam::encoding {

namespace {

[[noreturn]] void throw_non_finite(std::size_t feature) {
  throw std::invalid_argument{"UniformQuantizer::fit: non-finite value at feature " +
                              std::to_string(feature)};
}

/// The values a full ascending sort of `column` would put at `idx` and at
/// min(idx + 1, size - 1), found by selection. Requires every element
/// before `from` to be <= every element from `from` on, and from <= idx;
/// leaves the same true for from = idx + 1.
std::pair<float, float> adjacent_order_stats(std::vector<float>& column, std::size_t from,
                                             std::size_t idx) {
  const auto first = column.begin();
  std::nth_element(first + static_cast<std::ptrdiff_t>(from),
                   first + static_cast<std::ptrdiff_t>(idx), column.end());
  const float next = idx + 1 < column.size()
                         ? *std::min_element(first + static_cast<std::ptrdiff_t>(idx + 1),
                                             column.end())
                         : column[idx];
  return {column[idx], next};
}

/// Per feature, the values a full ascending sort of its column would put
/// at positions 0, min(1, size - 1) and size - 1: all that a bound at
/// either end of the column interpolates between.
struct ColumnEnds {
  std::vector<float> least;
  std::vector<float> second;
  std::vector<float> most;
};

/// Finds every feature's ColumnEnds in one pass over the rows, in row
/// order. Throws naming the lowest-numbered feature that holds a
/// non-finite value. Every row must hold `width` values.
ColumnEnds column_ends(std::span<const std::vector<float>> rows, std::size_t width) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  ColumnEnds ends{std::vector<float>(width, kInf), std::vector<float>(width, kInf),
                  std::vector<float>(width, -kInf)};
  std::vector<std::uint8_t> finite(width, 1);
  float* const least = ends.least.data();
  float* const second = ends.second.data();
  float* const most = ends.most.data();
  for (const auto& row : rows) {
    const float* const values = row.data();
    for (std::size_t f = 0; f < width; ++f) {
      const float v = values[f];
      finite[f] &= std::isfinite(v) ? 1 : 0;
      // Given least <= second, the second smallest of the three.
      second[f] = std::min(second[f], std::max(least[f], v));
      least[f] = std::min(least[f], v);
      most[f] = std::max(most[f], v);
    }
  }
  for (std::size_t f = 0; f < width; ++f) {
    if (finite[f] == 0) throw_non_finite(f);
  }
  if (rows.size() == 1) ends.second = ends.least;
  return ends;
}

}  // namespace

UniformQuantizer UniformQuantizer::fit(std::span<const std::vector<float>> rows,
                                       unsigned bits, double clip_percentile) {
  if (rows.empty()) throw std::invalid_argument{"UniformQuantizer::fit: no rows"};
  if (bits < 1 || bits > 16) throw std::invalid_argument{"UniformQuantizer::fit: bits in [1,16]"};
  if (!(clip_percentile >= 0.0 && clip_percentile < 50.0)) {  // NaN fails both.
    throw std::invalid_argument{"UniformQuantizer::fit: clip_percentile in [0,50)"};
  }
  const std::size_t width = rows.front().size();
  for (const auto& row : rows) {
    if (row.size() != width) throw std::invalid_argument{"UniformQuantizer::fit: ragged rows"};
  }

  UniformQuantizer q;
  q.bits_ = bits;
  q.lo_.resize(width);
  q.hi_.resize(width);
  // Each bound interpolates the sorted column at floor(pos) and the next
  // position. A bound at either end reads those order statistics from one
  // pass over the rows; one between the ends selects them from the
  // gathered column, the high bound's selection running only above the
  // low bound's position. At clip 0 both bounds are at the ends.
  const std::size_t top = rows.size() - 1;
  const double lo_pos = clip_percentile / 100.0 * static_cast<double>(top);
  const double hi_pos = (100.0 - clip_percentile) / 100.0 * static_cast<double>(top);
  const auto lo_idx = static_cast<std::size_t>(lo_pos);
  const auto hi_idx = static_cast<std::size_t>(hi_pos);
  const auto interpolate = [](double pos, std::size_t idx, float at, float next) {
    const double frac = pos - static_cast<double>(idx);
    return static_cast<float>(at * (1.0 - frac) + next * frac);
  };
  const ColumnEnds ends =
      lo_idx == 0 || hi_idx == top ? column_ends(rows, width) : ColumnEnds{};
  const bool select = lo_idx > 0 || (hi_idx != lo_idx && hi_idx != top);
  std::vector<float> column(select ? rows.size() : 0);
  for (std::size_t f = 0; f < width; ++f) {
    if (select) {
      for (std::size_t r = 0; r < rows.size(); ++r) {
        column[r] = rows[r][f];
        if (!std::isfinite(column[r])) throw_non_finite(f);
      }
    }
    const auto [lo_at, lo_next] = lo_idx == 0 ? std::pair{ends.least[f], ends.second[f]}
                                              : adjacent_order_stats(column, 0, lo_idx);
    const auto [hi_at, hi_next] =
        hi_idx == lo_idx ? std::pair{lo_at, lo_next}
        : hi_idx == top  ? std::pair{ends.most[f], ends.most[f]}
                         : adjacent_order_stats(column, lo_idx == 0 ? 0 : lo_idx + 1, hi_idx);
    q.lo_[f] = interpolate(lo_pos, lo_idx, lo_at, lo_next);
    q.hi_[f] = interpolate(hi_pos, hi_idx, hi_at, hi_next);
    if (!(q.hi_[f] > q.lo_[f])) q.hi_[f] = q.lo_[f] + 1.0f;  // Constant feature.
  }
  return q;
}

UniformQuantizer UniformQuantizer::from_state(unsigned bits, std::vector<float> lo,
                                              std::vector<float> hi) {
  if (bits < 1 || bits > 16) {
    throw std::invalid_argument{"UniformQuantizer::from_state: bits in [1,16]"};
  }
  if (lo.empty() || lo.size() != hi.size()) {
    throw std::invalid_argument{"UniformQuantizer::from_state: bad state size"};
  }
  for (std::size_t f = 0; f < lo.size(); ++f) {
    if (!std::isfinite(lo[f]) || !std::isfinite(hi[f]) || !(hi[f] > lo[f])) {
      throw std::invalid_argument{"UniformQuantizer::from_state: non-finite bound or hi <= lo"};
    }
  }
  UniformQuantizer q;
  q.bits_ = bits;
  q.lo_ = std::move(lo);
  q.hi_ = std::move(hi);
  return q;
}

std::vector<std::uint16_t> UniformQuantizer::quantize(std::span<const float> row) const {
  if (row.size() != lo_.size()) {
    throw std::invalid_argument{"UniformQuantizer::quantize: width mismatch"};
  }
  const auto levels = static_cast<float>(num_levels());
  const float top = levels - 1.0f;
  std::vector<std::uint16_t> out(row.size());
  for (std::size_t f = 0; f < row.size(); ++f) {
    if (!std::isfinite(row[f])) {
      throw std::invalid_argument{"UniformQuantizer::quantize: non-finite value at feature " +
                                  std::to_string(f)};
    }
    const float t = std::floor((row[f] - lo_[f]) / (hi_[f] - lo_[f]) * levels);
    // Saturated as a float: a finite feature far outside the fitted range
    // can still overflow t to +-inf, which no integer cast may see.
    out[f] = static_cast<std::uint16_t>(t > 0.0f ? std::min(t, top) : 0.0f);
  }
  return out;
}

std::vector<std::vector<std::uint16_t>> UniformQuantizer::quantize_all(
    std::span<const std::vector<float>> rows) const {
  std::vector<std::vector<std::uint16_t>> out;
  out.reserve(rows.size());
  for (const auto& row : rows) out.push_back(quantize(row));
  return out;
}

std::vector<float> UniformQuantizer::dequantize(std::span<const std::uint16_t> levels) const {
  if (levels.size() != lo_.size()) {
    throw std::invalid_argument{"UniformQuantizer::dequantize: width mismatch"};
  }
  std::vector<float> out(levels.size());
  const auto n = static_cast<float>(num_levels());
  for (std::size_t f = 0; f < levels.size(); ++f) {
    const float step = (hi_[f] - lo_[f]) / n;
    out[f] = lo_[f] + (static_cast<float>(levels[f]) + 0.5f) * step;
  }
  return out;
}

}  // namespace mcam::encoding
