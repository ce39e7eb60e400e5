// Property-based sweeps (TEST_P) over bit widths, word lengths and
// workloads: invariants that must hold for every configuration, not just
// the paper's 2/3-bit design points.
#include "cam/array.hpp"
#include "cam/lut.hpp"
#include "distance/mcam_distance.hpp"
#include "encoding/quantizer.hpp"
#include "search/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <vector>

namespace mcam {
namespace {

// ---------------------------------------------------------------------------
// LUT invariants across bit widths.
class LutProperties : public ::testing::TestWithParam<unsigned> {};

TEST_P(LutProperties, DiagonalDominatedByEveryOffDiagonal) {
  const fefet::LevelMap map{GetParam()};
  const auto lut = cam::ConductanceLut::nominal(map);
  for (std::size_t s = 0; s < map.num_states(); ++s) {
    for (std::size_t i = 0; i < map.num_states(); ++i) {
      if (i == s) continue;
      EXPECT_GT(lut.g(i, s), lut.g(s, s)) << "bits " << GetParam();
    }
  }
}

TEST_P(LutProperties, MonotoneAlongEveryRowAndColumn) {
  const fefet::LevelMap map{GetParam()};
  const auto lut = cam::ConductanceLut::nominal(map);
  const std::size_t n = map.num_states();
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t i = s + 2; i < n; ++i) {
      EXPECT_GT(lut.g(i, s), lut.g(i - 1, s));
      EXPECT_GT(lut.g(s, i), lut.g(s, i - 1));
    }
  }
}

TEST_P(LutProperties, MatchConductanceUniformAcrossStates) {
  // Every stored state's self-match is leakage-level and within 2x of the
  // others (no state is privileged).
  const fefet::LevelMap map{GetParam()};
  const auto lut = cam::ConductanceLut::nominal(map);
  double lo = 1e9;
  double hi = 0.0;
  for (std::size_t s = 0; s < map.num_states(); ++s) {
    lo = std::min(lo, lut.g(s, s));
    hi = std::max(hi, lut.g(s, s));
  }
  EXPECT_LT(hi / lo, 2.0);
}

INSTANTIATE_TEST_SUITE_P(Widths, LutProperties, ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------------------------------------------------------------------------
// LUT-metric vs physical-array equivalence across (bits, word length).
class ArrayLutEquivalence
    : public ::testing::TestWithParam<std::tuple<unsigned, std::size_t>> {};

TEST_P(ArrayLutEquivalence, SameNearestNeighborOnRandomWorkloads) {
  const auto [bits, word] = GetParam();
  const fefet::LevelMap map{bits};
  cam::McamArrayConfig config;
  config.level_map = map;
  cam::McamArray array{config};
  const distance::McamDistance metric{cam::ConductanceLut::nominal(map)};

  Rng rng{bits * 100 + word};
  std::vector<std::vector<std::uint16_t>> rows(10, std::vector<std::uint16_t>(word));
  for (auto& row : rows) {
    for (auto& level : row) level = static_cast<std::uint16_t>(rng.index(map.num_states()));
  }
  array.program(rows);
  for (int q = 0; q < 25; ++q) {
    std::vector<std::uint16_t> query(word);
    for (auto& level : query) {
      level = static_cast<std::uint16_t>(rng.index(map.num_states()));
    }
    std::size_t best = 0;
    for (std::size_t r = 1; r < rows.size(); ++r) {
      if (metric(query, rows[r]) < metric(query, rows[best])) best = r;
    }
    EXPECT_EQ(array.nearest(query).row, best);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ArrayLutEquivalence,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u),
                                            ::testing::Values(std::size_t{4},
                                                              std::size_t{16},
                                                              std::size_t{64})));

// ---------------------------------------------------------------------------
// Quantizer invariants across bit widths.
class QuantizerProperties : public ::testing::TestWithParam<unsigned> {};

TEST_P(QuantizerProperties, MonotoneInInput) {
  const unsigned bits = GetParam();
  Rng rng{bits};
  std::vector<std::vector<float>> rows(128, std::vector<float>(1));
  for (auto& row : rows) row[0] = static_cast<float>(rng.uniform(-5.0, 5.0));
  const auto q = encoding::UniformQuantizer::fit(rows, bits);
  std::uint16_t previous = 0;
  for (double x = -6.0; x <= 6.0; x += 0.05) {
    const auto level = q.quantize(std::vector<float>{static_cast<float>(x)})[0];
    EXPECT_GE(level, previous);
    previous = level;
  }
  EXPECT_EQ(previous, q.num_levels() - 1);  // Top level reached.
}

TEST_P(QuantizerProperties, DequantizeQuantizeIsIdempotent) {
  const unsigned bits = GetParam();
  Rng rng{bits + 50};
  std::vector<std::vector<float>> rows(200, std::vector<float>(3));
  for (auto& row : rows) {
    for (auto& v : row) v = static_cast<float>(rng.normal());
  }
  const auto q = encoding::UniformQuantizer::fit(rows, bits);
  for (int i = 0; i < 30; ++i) {
    const auto levels = q.quantize(rows[static_cast<std::size_t>(i)]);
    const auto centers = q.dequantize(levels);
    EXPECT_EQ(q.quantize(centers), levels);  // Level centers map to themselves.
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, QuantizerProperties,
                         ::testing::Values(1u, 2u, 3u, 4u, 6u, 8u));

/// The range bound fit() documents: the clip-percentile position of a fully
/// sorted column, linearly interpolated between its neighbours.
float sorted_pick(std::vector<float> column, double percentile) {
  std::sort(column.begin(), column.end());
  const double pos = percentile / 100.0 * static_cast<double>(column.size() - 1);
  const auto lo_idx = static_cast<std::size_t>(pos);
  const std::size_t hi_idx = std::min(lo_idx + 1, column.size() - 1);
  const double frac = pos - static_cast<double>(lo_idx);
  return static_cast<float>(column[lo_idx] * (1.0 - frac) + column[hi_idx] * frac);
}

TEST(QuantizerFit, SelectedBoundsEqualSortedPicks) {
  // fit() selects its two order-statistic pairs instead of sorting each
  // column; the bounds must be bit-identical to the sorted picks, ties and
  // the one- and two-row edge cases included.
  Rng rng{404};
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{17},
                              std::size_t{256}, std::size_t{2048}}) {
    for (const double clip : {0.0, 1.0, 2.5}) {
      std::vector<std::vector<float>> rows(n, std::vector<float>(4));
      for (auto& row : rows) {
        row[0] = static_cast<float>(rng.normal(0.0, 3.0));                    // Distinct.
        row[1] = static_cast<float>(rng.index(4)) - 1.5f;                     // Heavy ties.
        row[2] = rng.bernoulli(0.9) ? 2.25f : static_cast<float>(rng.uniform(1.0, 9.0));
        row[3] = 7.0f;                                                         // Constant.
      }
      const auto q = encoding::UniformQuantizer::fit(rows, 3, clip);
      for (std::size_t f = 0; f < 4; ++f) {
        std::vector<float> column;
        for (const auto& row : rows) column.push_back(row[f]);
        const float lo = sorted_pick(column, clip);
        float hi = sorted_pick(column, 100.0 - clip);
        if (!(hi > lo)) hi = lo + 1.0f;
        SCOPED_TRACE(::testing::Message() << "n=" << n << " clip=" << clip << " feature=" << f);
        EXPECT_EQ(std::bit_cast<std::uint32_t>(q.lows()[f]), std::bit_cast<std::uint32_t>(lo));
        EXPECT_EQ(std::bit_cast<std::uint32_t>(q.highs()[f]), std::bit_cast<std::uint32_t>(hi));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Engine-level invariant: quantization refinement never hurts on clean,
// well-separated data (accuracy monotone-ish in bits).
class EngineBitSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(EngineBitSweep, SeparableBlobsStaySeparated) {
  const unsigned bits = GetParam();
  Rng rng{bits * 7 + 1};
  std::vector<std::vector<float>> train;
  std::vector<int> labels;
  std::vector<std::vector<float>> test;
  std::vector<int> test_labels;
  for (int cls = 0; cls < 4; ++cls) {
    for (int i = 0; i < 15; ++i) {
      const auto sample = [&rng, cls]() {
        std::vector<float> v(6);
        for (std::size_t f = 0; f < 6; ++f) {
          v[f] = static_cast<float>(rng.normal(cls * 3.0 + (f % 2) * 0.5, 0.25));
        }
        return v;
      };
      train.push_back(sample());
      labels.push_back(cls);
      test.push_back(sample());
      test_labels.push_back(cls);
    }
  }
  cam::McamArrayConfig config;
  config.level_map = fefet::LevelMap{bits};
  search::McamNnEngine engine{config};
  engine.add(train, labels);
  // Even 2 bits separate blobs 12 sigma apart; >= 2 bits must be perfect.
  // 1 bit can only tell 2 of the 4 magnitude-ordered classes apart, so its
  // ceiling is 50% - still double the 25% chance level.
  const double accuracy = engine.accuracy(test, test_labels);
  if (bits >= 2) {
    EXPECT_DOUBLE_EQ(accuracy, 1.0) << "bits " << bits;
  } else {
    EXPECT_GE(accuracy, 0.45);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, EngineBitSweep, ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace mcam
