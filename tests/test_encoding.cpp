#include "encoding/normalize.hpp"
#include "encoding/quantizer.hpp"

#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
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

}  // namespace
}  // namespace mcam::encoding
