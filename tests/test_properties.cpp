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
#include <limits>
#include <stdexcept>
#include <string>
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
  // fit() reads a bound at either end of a column from one pass over the
  // rows and selects one between the ends instead of sorting; either way
  // the bounds must be bit-identical to the sorted picks, ties and the
  // one- and two-row edge cases included. clip 49 at 2048 rows leaves
  // tails of about 1000 values above the low pick and below the high one;
  // at 17 rows, clip 1 and 2.5 read the low bound from the pass and
  // select the high one.
  constexpr std::size_t kFeatures = 48;
  Rng rng{404};
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{17},
                              std::size_t{256}, std::size_t{2048}}) {
    for (const double clip : {0.0, 1.0, 2.5, 6.0, 49.0}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " clip=" << clip);
      std::vector<std::vector<float>> rows(n, std::vector<float>(kFeatures));
      for (auto& row : rows) {
        for (std::size_t f = 0; f < kFeatures; ++f) {
          const float zero = rng.bernoulli(0.5) ? 0.0f : -0.0f;
          const auto magnitude = static_cast<float>(rng.uniform(0.5, 4.0));
          switch (f % 8) {
            case 0: row[f] = static_cast<float>(rng.normal(0.0, 3.0)); break;  // Distinct.
            case 1: row[f] = static_cast<float>(rng.index(4)) - 1.5f; break;   // Heavy ties.
            case 2:
              row[f] = rng.bernoulli(0.9) ? 2.25f : static_cast<float>(rng.uniform(1.0, 9.0));
              break;
            case 3: row[f] = 7.0f; break;                                        // Constant.
            case 4: row[f] = -1.0f - magnitude; break;                      // Negative only.
            // +-0 ties at the low end, at the high end, and everywhere.
            case 5: row[f] = rng.bernoulli(0.6) ? zero : magnitude; break;
            case 6: row[f] = rng.bernoulli(0.6) ? zero : -magnitude; break;
            default: row[f] = zero;
          }
        }
      }
      const auto q = encoding::UniformQuantizer::fit(rows, 3, clip);
      for (std::size_t f = 0; f < kFeatures; ++f) {
        std::vector<float> column;
        for (const auto& row : rows) column.push_back(row[f]);
        const float lo = sorted_pick(column, clip);
        float hi = sorted_pick(column, 100.0 - clip);
        if (!(hi > lo)) hi = lo + 1.0f;
        SCOPED_TRACE(::testing::Message() << "feature=" << f);
        // std::sort orders -0 and +0 arbitrarily, so a zero bound's sign
        // is not part of the contract; compare it by value.
        const auto expect_same = [](float got, float want) {
          if (want == 0.0f) {
            EXPECT_EQ(got, 0.0f);
          } else {
            EXPECT_EQ(std::bit_cast<std::uint32_t>(got), std::bit_cast<std::uint32_t>(want));
          }
        };
        expect_same(q.lows()[f], lo);
        expect_same(q.highs()[f], hi);
      }
      // Every path checks in one order: ragged rows first, then the
      // lowest-numbered feature that holds a non-finite value, whatever
      // its row.
      if (n < 2) continue;
      const auto expect_error = [&](const std::vector<std::vector<float>>& bad,
                                    const std::string& what) {
        try {
          (void)encoding::UniformQuantizer::fit(bad, 3, clip);
          ADD_FAILURE() << "fit accepted rows with " << what;
        } catch (const std::invalid_argument& e) {
          EXPECT_NE(std::string{e.what()}.find(what), std::string::npos) << e.what();
        }
      };
      auto bad = rows;
      bad[0][3] = std::numeric_limits<float>::infinity();
      bad[n - 1][1] = std::numeric_limits<float>::quiet_NaN();
      expect_error(bad, "non-finite value at feature 1");
      bad[n / 2].pop_back();
      expect_error(bad, "ragged rows");
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
