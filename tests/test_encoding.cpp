#include "encoding/lsh.hpp"
#include "encoding/normalize.hpp"
#include "encoding/quantizer.hpp"

#include "distance/metrics.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>
#include <string>

namespace mcam::encoding {
namespace {

std::vector<std::vector<float>> toy_rows() {
  return {{0.0f, 10.0f, -1.0f}, {1.0f, 20.0f, 0.0f}, {2.0f, 30.0f, 1.0f},
          {3.0f, 40.0f, 3.0f}};
}

TEST(FeatureScaler, MinMaxMapsToUnitInterval) {
  const auto rows = toy_rows();
  const FeatureScaler scaler = FeatureScaler::fit_min_max(rows);
  for (const auto& row : rows) {
    const auto scaled = scaler.transform(row);
    for (float v : scaled) {
      EXPECT_GE(v, 0.0f);
      EXPECT_LE(v, 1.0f);
    }
  }
  EXPECT_FLOAT_EQ(scaler.transform(rows.front())[0], 0.0f);
  EXPECT_FLOAT_EQ(scaler.transform(rows.back())[0], 1.0f);
}

TEST(FeatureScaler, ZScoreCentersAndScales) {
  const auto rows = toy_rows();
  const FeatureScaler scaler = FeatureScaler::fit_z_score(rows);
  const auto scaled = scaler.transform_all(rows);
  for (std::size_t f = 0; f < 3; ++f) {
    double sum = 0.0;
    double sum_sq = 0.0;
    for (const auto& row : scaled) {
      sum += row[f];
      sum_sq += row[f] * row[f];
    }
    EXPECT_NEAR(sum / 4.0, 0.0, 1e-5);
    EXPECT_NEAR(std::sqrt(sum_sq / 3.0), 1.0, 1e-5);
  }
}

TEST(FeatureScaler, ConstantFeatureIsSafe) {
  const std::vector<std::vector<float>> rows{{5.0f, 1.0f}, {5.0f, 2.0f}};
  const FeatureScaler mm = FeatureScaler::fit_min_max(rows);
  const FeatureScaler zs = FeatureScaler::fit_z_score(rows);
  EXPECT_TRUE(std::isfinite(mm.transform(rows[0])[0]));
  EXPECT_TRUE(std::isfinite(zs.transform(rows[0])[0]));
}

TEST(FeatureScaler, Validation) {
  EXPECT_THROW((void)FeatureScaler::fit_min_max({}), std::invalid_argument);
  const std::vector<std::vector<float>> ragged{{1.0f}, {1.0f, 2.0f}};
  EXPECT_THROW((void)FeatureScaler::fit_min_max(ragged), std::invalid_argument);
  const FeatureScaler scaler = FeatureScaler::fit_min_max(toy_rows());
  EXPECT_THROW((void)scaler.transform(std::vector<float>{1.0f}), std::invalid_argument);
  // Restored state must be finite, offsets as well as scales.
  EXPECT_THROW((void)FeatureScaler::from_state({std::numeric_limits<float>::quiet_NaN()},
                                               {1.0f}),
               std::invalid_argument);
}

TEST(FeatureScaler, NonFiniteFitValueIsRejectedNamingTheFeature) {
  // One NaN or infinity used to make every scaled value of its feature
  // NaN (z-score) or collapse the feature's range (min-max).
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    auto rows = toy_rows();
    rows[2][1] = bad;
    for (const auto fit : {&FeatureScaler::fit_min_max, &FeatureScaler::fit_z_score}) {
      try {
        (void)fit(rows);
        FAIL() << "fit accepted " << bad;
      } catch (const std::invalid_argument& error) {
        EXPECT_NE(std::string{error.what()}.find("non-finite value at feature 1"),
                  std::string::npos)
            << error.what();
      }
    }
  }
}

TEST(UniformQuantizer, LevelsInRange) {
  const auto rows = toy_rows();
  const UniformQuantizer q = UniformQuantizer::fit(rows, 3);
  for (const auto& row : rows) {
    for (std::uint16_t level : q.quantize(row)) EXPECT_LT(level, 8u);
  }
}

TEST(UniformQuantizer, ExtremesGetExtremeLevels) {
  const auto rows = toy_rows();
  const UniformQuantizer q = UniformQuantizer::fit(rows, 2);
  EXPECT_EQ(q.quantize(rows.front())[1], 0u);
  EXPECT_EQ(q.quantize(rows.back())[1], 3u);
}

TEST(UniformQuantizer, RoundTripErrorBoundedByHalfStep) {
  Rng rng{3};
  std::vector<std::vector<float>> rows;
  for (int r = 0; r < 200; ++r) {
    rows.push_back({static_cast<float>(rng.uniform(0.0, 4.0)),
                    static_cast<float>(rng.uniform(-2.0, 2.0))});
  }
  const UniformQuantizer q = UniformQuantizer::fit(rows, 4);
  // Step = range / 16; dequantized value is the level center.
  for (const auto& row : rows) {
    const auto back = q.dequantize(q.quantize(row));
    EXPECT_NEAR(back[0], row[0], 4.0 / 16.0 * 0.5 + 1e-5);
    EXPECT_NEAR(back[1], row[1], 4.0 / 16.0 * 0.5 + 1e-5);
  }
}

TEST(UniformQuantizer, MoreBitsLowerError) {
  Rng rng{5};
  std::vector<std::vector<float>> rows;
  for (int r = 0; r < 300; ++r) rows.push_back({static_cast<float>(rng.uniform(0.0, 1.0))});
  double err2 = 0.0;
  double err4 = 0.0;
  const UniformQuantizer q2 = UniformQuantizer::fit(rows, 2);
  const UniformQuantizer q4 = UniformQuantizer::fit(rows, 4);
  for (const auto& row : rows) {
    err2 += std::fabs(q2.dequantize(q2.quantize(row))[0] - row[0]);
    err4 += std::fabs(q4.dequantize(q4.quantize(row))[0] - row[0]);
  }
  EXPECT_LT(err4, err2);
}

TEST(UniformQuantizer, ClipPercentileTightensRange) {
  Rng rng{7};
  std::vector<std::vector<float>> rows;
  for (int r = 0; r < 500; ++r) rows.push_back({static_cast<float>(rng.normal(0.0, 1.0))});
  rows.push_back({100.0f});  // One gross outlier.
  const UniformQuantizer loose = UniformQuantizer::fit(rows, 3, 0.0);
  const UniformQuantizer tight = UniformQuantizer::fit(rows, 3, 2.0);
  // Without clipping the outlier eats the top levels: a typical value maps
  // to level 0; with clipping it lands mid-scale.
  const std::vector<float> typical{0.5f};
  EXPECT_EQ(loose.quantize(typical)[0], 0u);
  EXPECT_GT(tight.quantize(typical)[0], 2u);
}

TEST(UniformQuantizer, OutOfFitRangeClamps) {
  const auto rows = toy_rows();
  const UniformQuantizer q = UniformQuantizer::fit(rows, 3);
  EXPECT_EQ(q.quantize(std::vector<float>{-100.0f, -100.0f, -100.0f})[0], 0u);
  EXPECT_EQ(q.quantize(std::vector<float>{100.0f, 100.0f, 100.0f})[0], 7u);
}

TEST(UniformQuantizer, Validation) {
  EXPECT_THROW((void)UniformQuantizer::fit({}, 3), std::invalid_argument);
  EXPECT_THROW((void)UniformQuantizer::fit(toy_rows(), 0), std::invalid_argument);
  EXPECT_THROW((void)UniformQuantizer::fit(toy_rows(), 3, 60.0), std::invalid_argument);
  // A NaN clip fails both range comparisons; it must not reach the
  // float-to-integer cast of the bound positions.
  for (const double clip : {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW((void)UniformQuantizer::fit(toy_rows(), 3, clip), std::invalid_argument)
        << clip;
  }
  const UniformQuantizer q = UniformQuantizer::fit(toy_rows(), 3);
  EXPECT_THROW((void)q.quantize(std::vector<float>{1.0f}), std::invalid_argument);
  // Restored bounds must be finite: an infinite one passes hi > lo but
  // quantizes every value of its feature to level 0.
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_THROW((void)UniformQuantizer::from_state(3, {0.0f}, {inf}), std::invalid_argument);
  EXPECT_THROW((void)UniformQuantizer::from_state(3, {-inf}, {1.0f}), std::invalid_argument);
  EXPECT_THROW((void)UniformQuantizer::from_state(3, {1.0f}, {1.0f}), std::invalid_argument);
  EXPECT_NO_THROW((void)UniformQuantizer::from_state(3, {0.0f}, {1.0f}));
}

TEST(UniformQuantizer, NonFiniteValuesThrowNamingTheFeature) {
  // NaN would break std::sort's ordering contract in fit and, like +-inf,
  // reach an undefined float-to-integer cast in quantize.
  const UniformQuantizer q = UniformQuantizer::fit(toy_rows(), 3);
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    auto rows = toy_rows();
    rows[2][1] = bad;
    try {
      (void)UniformQuantizer::fit(rows, 3);
      ADD_FAILURE() << "fit accepted " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("feature 1"), std::string::npos) << e.what();
    }
    try {
      (void)q.quantize(std::vector<float>{0.0f, 20.0f, bad});
      ADD_FAILURE() << "quantize accepted " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("feature 2"), std::string::npos) << e.what();
    }
  }
  // Finite values far outside the range still saturate, even where the
  // scaled position overflows float.
  const UniformQuantizer unit = UniformQuantizer::from_state(3, {-1.0f}, {1.0f});
  EXPECT_EQ(unit.quantize(std::vector<float>{3e38f})[0], 7u);
  EXPECT_EQ(unit.quantize(std::vector<float>{-3e38f})[0], 0u);
}

TEST(Signature, PackUnpackRoundTrip) {
  RandomHyperplaneLsh lsh{8, 70, 3};
  Rng rng{1};
  std::vector<float> v(8);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  const Signature sig = lsh.encode(v);
  const auto unpacked = sig.unpack();
  ASSERT_EQ(unpacked.size(), 70u);
  for (std::size_t i = 0; i < 70; ++i) {
    EXPECT_EQ(unpacked[i] != 0, sig.bit(i));
  }
}

TEST(Lsh, DeterministicGivenSeed) {
  RandomHyperplaneLsh a{16, 64, 9};
  RandomHyperplaneLsh b{16, 64, 9};
  Rng rng{2};
  std::vector<float> v(16);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  EXPECT_EQ(a.encode(v).words, b.encode(v).words);
}

TEST(Lsh, IdenticalVectorsHaveZeroHamming) {
  RandomHyperplaneLsh lsh{16, 64, 4};
  Rng rng{3};
  std::vector<float> v(16);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  EXPECT_EQ(hamming_distance(lsh.encode(v), lsh.encode(v)), 0u);
}

TEST(Lsh, OppositeVectorsHaveFullHamming) {
  RandomHyperplaneLsh lsh{16, 64, 5};
  Rng rng{4};
  std::vector<float> v(16);
  std::vector<float> neg(16);
  for (std::size_t i = 0; i < 16; ++i) {
    v[i] = static_cast<float>(rng.normal());
    neg[i] = -v[i];
  }
  // Sign flip flips every projection (ties measure zero).
  EXPECT_EQ(hamming_distance(lsh.encode(v), lsh.encode(neg)), 64u);
}

TEST(Lsh, HammingTracksAngle) {
  // Collision probability of sign-LSH is 1 - theta/pi: expected normalized
  // Hamming distance equals theta/pi. Verify within sampling tolerance.
  constexpr std::size_t kBits = 2048;
  RandomHyperplaneLsh lsh{2, kBits, 6};
  const double theta = std::numbers::pi / 3.0;  // 60 degrees.
  const std::vector<float> a{1.0f, 0.0f};
  const std::vector<float> b{static_cast<float>(std::cos(theta)),
                             static_cast<float>(std::sin(theta))};
  const double normalized =
      static_cast<double>(hamming_distance(lsh.encode(a), lsh.encode(b))) / kBits;
  EXPECT_NEAR(normalized, theta / std::numbers::pi, 0.04);
}

TEST(Lsh, MoreBitsBetterCosineApproximation) {
  Rng rng{8};
  const std::size_t dim = 32;
  auto sample = [&rng, dim]() {
    std::vector<float> v(dim);
    for (auto& x : v) x = static_cast<float>(rng.normal());
    return v;
  };
  auto correlation = [&](std::size_t bits) {
    RandomHyperplaneLsh lsh{dim, bits, 11};
    std::vector<double> cos_d;
    std::vector<double> ham_d;
    for (int pair = 0; pair < 120; ++pair) {
      const auto a = sample();
      const auto b = sample();
      cos_d.push_back(distance::cosine(a, b));
      ham_d.push_back(static_cast<double>(hamming_distance(lsh.encode(a), lsh.encode(b))) /
                      static_cast<double>(bits));
    }
    double sxy = 0.0;
    double sxx = 0.0;
    double syy = 0.0;
    const double mx = [&] { double s = 0; for (double x : cos_d) s += x; return s / cos_d.size(); }();
    const double my = [&] { double s = 0; for (double y : ham_d) s += y; return s / ham_d.size(); }();
    for (std::size_t i = 0; i < cos_d.size(); ++i) {
      sxy += (cos_d[i] - mx) * (ham_d[i] - my);
      sxx += (cos_d[i] - mx) * (cos_d[i] - mx);
      syy += (ham_d[i] - my) * (ham_d[i] - my);
    }
    return sxy / std::sqrt(sxx * syy);
  };
  EXPECT_GT(correlation(512), correlation(16));
}

TEST(Lsh, Validation) {
  EXPECT_THROW((RandomHyperplaneLsh{0, 64, 1}), std::invalid_argument);
  EXPECT_THROW((RandomHyperplaneLsh{16, 0, 1}), std::invalid_argument);
  RandomHyperplaneLsh lsh{16, 64, 1};
  EXPECT_THROW((void)lsh.encode(std::vector<float>(8, 0.0f)), std::invalid_argument);
  Signature a;
  a.bits = 8;
  a.words = {0};
  Signature b;
  b.bits = 16;
  b.words = {0};
  EXPECT_THROW((void)hamming_distance(a, b), std::invalid_argument);
}

}  // namespace
}  // namespace mcam::encoding
