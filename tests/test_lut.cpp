#include "cam/lut.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

namespace mcam::cam {
namespace {

using fefet::ChannelParams;
using fefet::LevelMap;
using fefet::PreisachParams;
using fefet::PulseProgrammer;
using fefet::PulseScheme;
using fefet::SamplingMode;
using fefet::VthMap;

class LutTest : public ::testing::Test {
 protected:
  LutTest() : map_(3), lut_(ConductanceLut::nominal(map_)) {}
  LevelMap map_;
  ConductanceLut lut_;
};

TEST_F(LutTest, DimensionsMatchLevelMap) {
  EXPECT_EQ(lut_.num_states(), 8u);
  EXPECT_THROW((void)lut_.g(8, 0), std::out_of_range);
  EXPECT_THROW((void)lut_.g(0, 8), std::out_of_range);
}

TEST_F(LutTest, DiagonalIsMinimalPerColumn) {
  // For every stored state, the matching input has the smallest G.
  for (std::size_t stored = 0; stored < 8; ++stored) {
    const double g_match = lut_.g(stored, stored);
    for (std::size_t input = 0; input < 8; ++input) {
      if (input == stored) continue;
      EXPECT_GT(lut_.g(input, stored), g_match);
    }
  }
}

TEST_F(LutTest, ConductanceMonotoneInDistance) {
  for (std::size_t stored = 0; stored < 8; ++stored) {
    for (std::size_t input = stored + 1; input < 8; ++input) {
      EXPECT_GT(lut_.g(input, stored), lut_.g(input - 1, stored));
    }
    for (std::size_t input = 0; input < stored; ++input) {
      EXPECT_GT(lut_.g(input, stored), lut_.g(input + 1, stored));
    }
  }
}

TEST_F(LutTest, NearSymmetricUnderTranspose) {
  for (std::size_t a = 0; a < 8; ++a) {
    for (std::size_t b = 0; b < 8; ++b) {
      EXPECT_NEAR(std::log10(lut_.g(a, b) / lut_.g(b, a)), 0.0, 0.05);
    }
  }
}

TEST_F(LutTest, MeanGByDistanceMonotone) {
  const std::vector<double> by_distance = lut_.mean_g_by_distance();
  ASSERT_EQ(by_distance.size(), 8u);
  for (std::size_t d = 1; d < 8; ++d) {
    EXPECT_GT(by_distance[d], by_distance[d - 1]);
  }
}

TEST_F(LutTest, DistanceProfileOfS1MatchesPaperShape) {
  // Fig. 4(a)/(d): exponential rise then saturation; derivative peaks in
  // the 3..5 distance band and droops at 6-7.
  const DistanceProfile profile = distance_profile(lut_, 0);
  ASSERT_EQ(profile.distance.size(), 8u);
  ASSERT_EQ(profile.derivative.size(), 7u);
  std::size_t peak = 0;
  for (std::size_t d = 1; d < profile.derivative.size(); ++d) {
    if (profile.derivative[d] > profile.derivative[peak]) peak = d;
  }
  EXPECT_GE(peak, 3u);
  EXPECT_LE(peak, 5u);
  // Droop at the far end: last derivative below the peak.
  EXPECT_LT(profile.derivative.back(), 0.5 * profile.derivative[peak]);
  // Exponential early growth: each of the first steps multiplies G by > 2.
  for (std::size_t d = 1; d <= 3; ++d) {
    EXPECT_GT(profile.conductance[d + 1] / profile.conductance[d], 2.0);
  }
}

TEST_F(LutTest, DistanceProfileDescendingForHighStates) {
  // Stored S8 sweeps downward; profile still monotone with full range.
  const DistanceProfile profile = distance_profile(lut_, 7);
  ASSERT_EQ(profile.distance.size(), 8u);
  for (std::size_t d = 1; d < profile.conductance.size(); ++d) {
    EXPECT_GT(profile.conductance[d], profile.conductance[d - 1]);
  }
}

TEST_F(LutTest, ProfileOutOfRangeThrows) {
  EXPECT_THROW((void)distance_profile(lut_, 8), std::out_of_range);
}

TEST(Lut, ProgrammedQuantileMatchesNominalOrdering) {
  const LevelMap map{3};
  const PulseProgrammer programmer{map.programmable_vth_levels(), PreisachParams{},
                                   VthMap{}, PulseScheme{}};
  const ConductanceLut nominal = ConductanceLut::nominal(map);
  const ConductanceLut programmed = ConductanceLut::programmed(
      map, programmer, PreisachParams{}, ChannelParams{}, SamplingMode::kQuantile, 1);
  for (std::size_t stored = 0; stored < 8; ++stored) {
    for (std::size_t input = 1; input < 8; ++input) {
      const bool nominal_rises = nominal.g(input, stored) > nominal.g(input - 1, stored);
      const bool programmed_rises =
          programmed.g(input, stored) > programmed.g(input - 1, stored);
      EXPECT_EQ(nominal_rises, programmed_rises);
    }
  }
}

TEST(Lut, WithVthNoisePerturbsEntries) {
  const LevelMap map{3};
  const ConductanceLut nominal = ConductanceLut::nominal(map);
  Rng rng{3};
  const ConductanceLut noisy = nominal.with_vth_noise(map, ChannelParams{}, 0.05, rng);
  bool any_changed = false;
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t s = 0; s < 8; ++s) {
      if (noisy.g(i, s) != nominal.g(i, s)) any_changed = true;
    }
  }
  EXPECT_TRUE(any_changed);
}

TEST(Lut, FromValuesRoundTrips) {
  std::vector<double> values(4, 0.0);
  values[0 * 2 + 0] = 1.0;
  values[0 * 2 + 1] = 2.0;
  values[1 * 2 + 0] = 3.0;
  values[1 * 2 + 1] = 4.0;
  const ConductanceLut lut = ConductanceLut::from_values(2, values);
  EXPECT_DOUBLE_EQ(lut.g(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(lut.g(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(lut.g(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(lut.g(1, 1), 4.0);
}

TEST(Lut, FromValuesSizeMismatchThrows) {
  EXPECT_THROW((void)ConductanceLut::from_values(3, std::vector<double>(8, 0.0)),
               std::invalid_argument);
  EXPECT_THROW((void)ConductanceLut::from_values(0, {}), std::invalid_argument);
  // Measured conductances must be finite and non-negative; the message
  // names the offending (input, stored) entry, row-major [input][stored].
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(), -1e-9}) {
    std::vector<double> values(9, 1e-9);
    values[5] = bad;  // input 1, stored 2
    try {
      (void)ConductanceLut::from_values(3, values);
      ADD_FAILURE() << "accepted " << bad;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string{error.what()}.find("(input 1, stored 2)"), std::string::npos)
          << error.what();
    }
  }
  const std::vector<double> zeros(9, 0.0);
  EXPECT_EQ(ConductanceLut::from_values(3, zeros).g(1, 2), 0.0);
}

TEST(Lut, DistanceScatterCoversAllPairsAndSpreads) {
  const LevelMap map{2};
  const PulseProgrammer programmer{map.programmable_vth_levels(), PreisachParams{},
                                   VthMap{}, PulseScheme{}};
  const DistanceScatter scatter =
      distance_scatter(map, programmer, PreisachParams{}, ChannelParams{}, 4, 9);
  ASSERT_EQ(scatter.distance.size(), 4u * 4u * 4u);
  ASSERT_EQ(scatter.conductance.size(), scatter.distance.size());
  // Same-distance points from different Monte-Carlo cells must spread
  // (that spread is the Fig. 4(b) scatter).
  double g_first_d1 = -1.0;
  bool spread = false;
  for (std::size_t i = 0; i < scatter.distance.size(); ++i) {
    if (scatter.distance[i] == 1.0) {
      if (g_first_d1 < 0.0) {
        g_first_d1 = scatter.conductance[i];
      } else if (std::fabs(scatter.conductance[i] - g_first_d1) > 1e-12) {
        spread = true;
      }
    }
  }
  EXPECT_TRUE(spread);
}

TEST(Lut, TwoBitNominalProfile) {
  const LevelMap map{2};
  const ConductanceLut lut = ConductanceLut::nominal(map);
  const DistanceProfile profile = distance_profile(lut, 0);
  ASSERT_EQ(profile.distance.size(), 4u);
  for (std::size_t d = 1; d < 4; ++d) {
    EXPECT_GT(profile.conductance[d], profile.conductance[d - 1]);
  }
  // 2-bit windows are 240 mV: one step of distance is already ~a decade.
  EXPECT_GT(profile.conductance[1] / profile.conductance[0], 8.0);
}

}  // namespace
}  // namespace mcam::cam
