#include "cam/array.hpp"

#include "fnv1a.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace mcam::cam {
namespace {

std::vector<std::uint16_t> row(std::initializer_list<int> levels) {
  std::vector<std::uint16_t> out;
  for (int l : levels) out.push_back(static_cast<std::uint16_t>(l));
  return out;
}

TEST(McamArray, AddRowValidation) {
  McamArray array{McamArrayConfig{}};
  EXPECT_THROW((void)array.add_row(std::vector<std::uint16_t>{}), std::invalid_argument);
  array.add_row(row({1, 2, 3}));
  EXPECT_THROW((void)array.add_row(row({1, 2})), std::invalid_argument);
  EXPECT_THROW((void)array.add_row(row({1, 2, 9})), std::out_of_range);
  EXPECT_EQ(array.num_rows(), 1u);
  EXPECT_EQ(array.word_length(), 3u);
}

TEST(McamArray, OversizedRowBoundGrowsOnDemand) {
  // Bounded banks reserve their cell storage up front; a bound far past
  // any physical bank (from a spec string or a snapshot) must not turn
  // into one huge allocation.
  for (const std::size_t max_rows : {std::size_t{1} << 40, std::size_t{1} << 62}) {
    McamArrayConfig config;
    config.max_rows = max_rows;
    McamArray array{config};
    array.add_row(row({1, 2, 3, 4, 5, 6}));
    array.add_row(row({6, 5, 4, 3, 2, 1}));
    EXPECT_EQ(array.nearest(row({6, 5, 4, 3, 2, 1})).row, 1u);
  }
}

TEST(McamArray, RejectedRowDrawsNoProgrammingNoise) {
  // A row rejected at a late cell must not consume programming Rng draws:
  // the live array has to match a snapshot replay, which re-adds only the
  // accepted rows.
  McamArrayConfig config;
  config.vth_sigma = 0.05;
  config.seed = 3;
  McamArray live{config};
  live.add_row(row({1, 2, 3, 4}));
  EXPECT_THROW((void)live.add_row(row({1, 2, 99, 4})), std::out_of_range);
  live.add_row(row({5, 6, 7, 0}));
  McamArray replay{config};
  replay.add_row(row({1, 2, 3, 4}));
  replay.add_row(row({5, 6, 7, 0}));
  ASSERT_EQ(live.num_rows(), 2u);
  for (const auto& query : {row({5, 6, 7, 0}), row({0, 1, 2, 3})}) {
    EXPECT_EQ(live.search_conductances(query), replay.search_conductances(query));
  }
  EXPECT_DOUBLE_EQ(live.row_health(1).sum_abs_shift_v, replay.row_health(1).sum_abs_shift_v);

  // A rejected first row leaves the word length unset.
  McamArray fresh{config};
  EXPECT_THROW((void)fresh.add_row(row({1, 99})), std::out_of_range);
  EXPECT_EQ(fresh.word_length(), 0u);
  fresh.add_row(row({1, 2, 3}));
  EXPECT_EQ(fresh.word_length(), 3u);
}

TEST(McamArray, SearchConductancesEqualLutSums) {
  McamArray array{McamArrayConfig{}};
  array.add_row(row({0, 3, 7}));
  array.add_row(row({2, 2, 2}));
  const auto query = row({1, 3, 6});
  const std::vector<double> totals = array.search_conductances(query);
  ASSERT_EQ(totals.size(), 2u);
  const ConductanceLut& lut = array.lut();
  EXPECT_NEAR(totals[0], lut.g(1, 0) + lut.g(3, 3) + lut.g(6, 7), 1e-18);
  EXPECT_NEAR(totals[1], lut.g(1, 2) + lut.g(3, 2) + lut.g(6, 2), 1e-18);
}

TEST(McamArray, NearestFindsExactMatchRow) {
  McamArray array{McamArrayConfig{}};
  array.add_row(row({0, 1, 2, 3}));
  array.add_row(row({4, 5, 6, 7}));
  array.add_row(row({7, 0, 7, 0}));
  const SearchOutcome outcome = array.nearest(row({4, 5, 6, 7}));
  EXPECT_EQ(outcome.row, 1u);
}

TEST(McamArray, NearestPrefersSmallestTotalDistance) {
  McamArray array{McamArrayConfig{}};
  array.add_row(row({2, 2, 2, 2}));  // distance 4 (1 per cell)
  array.add_row(row({3, 3, 3, 3}));  // distance 0
  array.add_row(row({3, 3, 3, 5}));  // distance 2
  const SearchOutcome outcome = array.nearest(row({3, 3, 3, 3}));
  EXPECT_EQ(outcome.row, 1u);
}

TEST(McamArray, ExponentialDistanceConcentration) {
  // Sec. III-B: G_1^4 > G_4^1 and G_1^7 >> G_7^1 on 16-cell rows: one far
  // mismatch outweighs several near ones even at larger total distance.
  McamArrayConfig config;
  McamArray array{config};
  std::vector<std::uint16_t> match(16, 0);
  auto one_cell_d4 = match;
  one_cell_d4[0] = 4;
  auto four_cells_d1 = match;
  for (int i = 0; i < 4; ++i) four_cells_d1[i] = 1;
  auto one_cell_d7 = match;
  one_cell_d7[0] = 7;
  auto seven_cells_d1 = match;
  for (int i = 0; i < 7; ++i) seven_cells_d1[i] = 1;
  array.add_row(one_cell_d4);
  array.add_row(four_cells_d1);
  array.add_row(one_cell_d7);
  array.add_row(seven_cells_d1);
  const std::vector<double> g = array.search_conductances(match);
  EXPECT_GT(g[0], g[1]);          // G_1^4 > G_4^1.
  EXPECT_GT(g[2], 10.0 * g[3]);   // G_1^7 >> G_7^1.
  EXPECT_GT(g[0], g[3]);          // G_1^4 > G_7^1.
}

TEST(McamArray, MatchlineTimingAgreesWithIdealSum) {
  McamArrayConfig ideal_config;
  McamArrayConfig timing_config;
  timing_config.sensing = SensingMode::kMatchlineTiming;
  McamArray ideal{ideal_config};
  McamArray timing{timing_config};
  Rng rng{5};
  std::vector<std::vector<std::uint16_t>> rows;
  for (int r = 0; r < 12; ++r) {
    std::vector<std::uint16_t> levels(16);
    for (auto& l : levels) l = static_cast<std::uint16_t>(rng.index(8));
    rows.push_back(levels);
  }
  ideal.program(rows);
  timing.program(rows);
  for (int q = 0; q < 20; ++q) {
    std::vector<std::uint16_t> query(16);
    for (auto& l : query) l = static_cast<std::uint16_t>(rng.index(8));
    EXPECT_EQ(ideal.nearest(query).row, timing.nearest(query).row);
  }
}

TEST(McamArray, MatchlineTimingPopulatesSenseResult) {
  McamArrayConfig config;
  config.sensing = SensingMode::kMatchlineTiming;
  McamArray array{config};
  array.add_row(row({0, 0, 0, 0}));
  array.add_row(row({7, 7, 7, 7}));
  const SearchOutcome outcome = array.nearest(row({0, 0, 0, 0}));
  EXPECT_EQ(outcome.row, 0u);
  ASSERT_EQ(outcome.sense.times.size(), 2u);
  EXPECT_GT(outcome.sense.times[0], outcome.sense.times[1]);
  EXPECT_GT(outcome.sense.margin, 0.0);
}

TEST(McamArray, CoarseSenseClockCanTieNearbyRows) {
  McamArrayConfig config;
  config.sensing = SensingMode::kMatchlineTiming;
  config.sense_clock_period = 1.0;  // Absurdly coarse: everything ties.
  McamArray array{config};
  array.add_row(row({0, 0, 0, 1}));
  array.add_row(row({0, 0, 1, 0}));
  const SearchOutcome outcome = array.nearest(row({0, 0, 0, 0}));
  EXPECT_TRUE(outcome.sense.tie);
}

TEST(McamArray, ExactMatchSearch) {
  McamArray array{McamArrayConfig{}};
  array.add_row(row({1, 2, 3}));
  array.add_row(row({1, 2, 4}));
  array.add_row(row({1, 2, 3}));
  // The limit must sit between the per-cell match level (~3 nS) and the
  // distance-1 level (~7.4 nS); 4 nS/cell separates them at row scale.
  const auto matches = array.exact_matches(row({1, 2, 3}), 4e-9);
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0], 0u);
  EXPECT_EQ(matches[1], 2u);
}

TEST(McamArray, QueryLengthMismatchThrows) {
  McamArray array{McamArrayConfig{}};
  array.add_row(row({1, 2, 3}));
  EXPECT_THROW((void)array.search_conductances(row({1, 2})), std::invalid_argument);
  // A level past the map would index past the compiled drive table.
  EXPECT_THROW((void)array.search_conductances(row({1, 2, 8})), std::out_of_range);
}

TEST(McamArray, NearestOnEmptyThrows) {
  McamArray array{McamArrayConfig{}};
  EXPECT_THROW((void)array.nearest(row({0})), std::logic_error);
}

TEST(McamArray, ClearResets) {
  McamArray array{McamArrayConfig{}};
  array.add_row(row({1, 2}));
  array.clear();
  EXPECT_EQ(array.num_rows(), 0u);
  array.add_row(row({1, 2, 3}));  // New word length accepted after clear.
  EXPECT_EQ(array.word_length(), 3u);
}

TEST(McamArray, ProgrammingNoiseIsStablePerInstance) {
  McamArrayConfig config;
  config.vth_sigma = 0.05;
  config.seed = 9;
  McamArray array{config};
  array.add_row(row({3, 4, 5, 6}));
  const auto q = row({3, 4, 5, 6});
  const double g1 = array.search_conductances(q)[0];
  const double g2 = array.search_conductances(q)[0];
  EXPECT_DOUBLE_EQ(g1, g2);  // Same hardware instance across searches.
}

TEST(McamArray, DifferentSeedsGiveDifferentInstances) {
  McamArrayConfig a_config;
  a_config.vth_sigma = 0.05;
  a_config.seed = 1;
  McamArrayConfig b_config = a_config;
  b_config.seed = 2;
  McamArray a{a_config};
  McamArray b{b_config};
  a.add_row(row({3, 4, 5, 6}));
  b.add_row(row({3, 4, 5, 6}));
  const auto q = row({3, 4, 5, 6});
  EXPECT_NE(a.search_conductances(q)[0], b.search_conductances(q)[0]);
}

TEST(McamArray, MeasuredTableReplacesTheNominalTable) {
  // config.lut is the table a nominal cell reads; nothing models how a
  // measured cell's Vth could be offset, so noise and drift are refused.
  std::vector<double> values(16);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = 1e-9 * static_cast<double>(i + 1);
  McamArrayConfig config;
  config.level_map = fefet::LevelMap{2};
  config.lut = std::make_shared<const ConductanceLut>(ConductanceLut::from_values(4, values));
  McamArray array{config};
  EXPECT_EQ(array.lut().g(2, 3), values[2 * 4 + 3]);
  array.add_row(row({3, 0}));
  EXPECT_EQ(array.search_conductances(row({2, 1}))[0], values[2 * 4 + 3] + values[1 * 4 + 0]);
  EXPECT_THROW((void)array.apply_drift(0.05, 1), std::logic_error);
  EXPECT_EQ(array.search_conductances(row({2, 1}))[0], values[2 * 4 + 3] + values[1 * 4 + 0]);

  McamArrayConfig wrong_size = config;
  wrong_size.level_map = fefet::LevelMap{3};
  EXPECT_THROW((void)McamArray{wrong_size}, std::invalid_argument);
  McamArrayConfig noisy = config;
  noisy.vth_sigma = 0.05;
  EXPECT_THROW((void)McamArray{noisy}, std::invalid_argument);
  McamArrayConfig drifting = config;
  drifting.drift_sigma = 0.05;
  EXPECT_THROW((void)McamArray{drifting}, std::invalid_argument);
}

TEST(McamArray, ZeroNoiseMatchesLutExactly) {
  McamArrayConfig config;
  config.vth_sigma = 0.0;
  McamArray array{config};
  array.add_row(row({5}));
  EXPECT_DOUBLE_EQ(array.search_conductances(row({2}))[0], array.lut().g(2, 5));
}

TEST(McamArray, HugeNoiseBreaksNearestNeighbor) {
  // Sanity: with sigma far beyond the window, ranking must degrade for at
  // least some queries (this is the regime past the Fig. 8 cliff).
  McamArrayConfig clean_config;
  McamArrayConfig noisy_config;
  noisy_config.vth_sigma = 0.50;
  noisy_config.seed = 13;
  McamArray clean{clean_config};
  McamArray noisy{noisy_config};
  Rng rng{21};
  std::vector<std::vector<std::uint16_t>> rows;
  for (int r = 0; r < 16; ++r) {
    std::vector<std::uint16_t> levels(8);
    for (auto& l : levels) l = static_cast<std::uint16_t>(rng.index(8));
    rows.push_back(levels);
  }
  clean.program(rows);
  noisy.program(rows);
  int disagreements = 0;
  for (int q = 0; q < 40; ++q) {
    std::vector<std::uint16_t> query(8);
    for (auto& l : query) l = static_cast<std::uint16_t>(rng.index(8));
    if (clean.nearest(query).row != noisy.nearest(query).row) ++disagreements;
  }
  EXPECT_GT(disagreements, 0);
}

/// Parameterized sweep over bit widths: the array works for any B.
class McamArrayBits : public ::testing::TestWithParam<unsigned> {};

TEST_P(McamArrayBits, SelfMatchAlwaysWins) {
  McamArrayConfig config;
  config.level_map = fefet::LevelMap{GetParam()};
  McamArray array{config};
  const auto n = static_cast<std::uint16_t>(config.level_map.num_states());
  Rng rng{GetParam()};
  std::vector<std::vector<std::uint16_t>> rows;
  for (int r = 0; r < 8; ++r) {
    std::vector<std::uint16_t> levels(12);
    for (auto& l : levels) l = static_cast<std::uint16_t>(rng.index(n));
    rows.push_back(levels);
  }
  array.program(rows);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const SearchOutcome outcome = array.nearest(rows[r]);
    // The stored row itself (or an identical duplicate) must win.
    EXPECT_EQ(array.search_conductances(rows[r])[outcome.row],
              array.search_conductances(rows[r])[r]);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, McamArrayBits, ::testing::Values(1u, 2u, 3u, 4u));

/// The per-cell analog model the compiled sweep must reproduce: cells
/// rebuilt by replaying McamArray::add_row's documented draws on an Rng
/// with the array's seed, each evaluated per query as a stuck-fault
/// constant, the exact LUT entry (both offsets zero) or two
/// fefet::channel_conductance calls.
class AnalogReference {
 public:
  explicit AnalogReference(const McamArrayConfig& config)
      : config_(config), lut_(ConductanceLut::nominal(config.level_map, config.channel)),
        rng_(config.seed) {}

  void add_row(std::span<const std::uint16_t> levels) {
    for (const std::uint16_t level : levels) {
      Cell cell;
      cell.level = level;
      if (config_.vth_sigma > 0.0) {
        cell.dvth_left = static_cast<float>(rng_.normal(0.0, config_.vth_sigma));
        cell.dvth_right = static_cast<float>(rng_.normal(0.0, config_.vth_sigma));
      }
      if (config_.drift_sigma > 0.0) {
        cell.dvth_left += static_cast<float>(rng_.normal(0.0, config_.drift_sigma));
        cell.dvth_right += static_cast<float>(rng_.normal(0.0, config_.drift_sigma));
      }
      if (config_.stuck_short_rate > 0.0 && rng_.bernoulli(config_.stuck_short_rate)) {
        cell.stuck_short = true;
      } else if (config_.stuck_open_rate > 0.0 && rng_.bernoulli(config_.stuck_open_rate)) {
        cell.stuck_open = true;
      }
      cells_.push_back(cell);
    }
    width_ = levels.size();
  }

  void apply_drift(double sigma, std::uint64_t seed) {
    Rng rng{seed};
    for (Cell& cell : cells_) {
      cell.dvth_left += static_cast<float>(rng.normal(0.0, sigma));
      cell.dvth_right += static_cast<float>(rng.normal(0.0, sigma));
    }
  }

  /// Drops the cells; like McamArray::clear, the Rng is not reseeded.
  void clear() { cells_.clear(); }

  [[nodiscard]] std::vector<double> totals(std::span<const std::uint16_t> query) const {
    std::vector<double> out;
    for (std::size_t first = 0; first < cells_.size(); first += width_) {
      double g = 0.0;
      for (std::size_t c = 0; c < width_; ++c) g += conductance(cells_[first + c], query[c]);
      out.push_back(g);
    }
    return out;
  }

 private:
  struct Cell {
    std::uint16_t level = 0;
    bool stuck_short = false;
    bool stuck_open = false;
    float dvth_left = 0.0f;
    float dvth_right = 0.0f;
  };

  [[nodiscard]] double conductance(const Cell& cell, std::size_t input) const {
    const fefet::ChannelParams& channel = config_.channel;
    if (cell.stuck_short) return channel.g_leak + 1.0 / channel.r_on;
    if (cell.stuck_open) return 2.0 * channel.g_leak;
    if (cell.dvth_left == 0.0f && cell.dvth_right == 0.0f) return lut_.g(input, cell.level);
    const fefet::LevelMap& map = config_.level_map;
    const double v_in = map.input_voltage(input);
    return fefet::channel_conductance(
               channel, v_in - (map.right_fefet_vth(cell.level) + cell.dvth_right)) +
           fefet::channel_conductance(
               channel, map.invert(v_in) - (map.left_fefet_vth(cell.level) + cell.dvth_left));
  }

  McamArrayConfig config_;
  ConductanceLut lut_;
  Rng rng_;
  std::vector<Cell> cells_;
  std::size_t width_ = 0;
};

std::vector<std::vector<std::uint16_t>> random_levels(Rng& rng, std::size_t count,
                                                      std::size_t width, std::size_t states) {
  std::vector<std::vector<std::uint16_t>> out(count, std::vector<std::uint16_t>(width));
  for (auto& levels : out) {
    for (auto& level : levels) level = static_cast<std::uint16_t>(rng.index(states));
  }
  return out;
}

TEST(McamArray, CompiledMatchesAnalogModel) {
  std::uint64_t seed = 70;
  for (const unsigned bits : {1u, 2u, 3u, 4u, 6u}) {
    for (const double vth_sigma : {0.01, 0.05, 0.5}) {
      for (const double drift_sigma : {0.0, 0.03}) {
        for (const double fault_rate : {0.0, 0.02}) {
          McamArrayConfig config;
          config.level_map = fefet::LevelMap{bits};
          config.vth_sigma = vth_sigma;
          config.drift_sigma = drift_sigma;
          config.stuck_short_rate = fault_rate;
          config.stuck_open_rate = fault_rate;
          config.seed = ++seed;
          McamArray array{config};
          AnalogReference reference{config};
          Rng data{seed * 7919};
          const std::size_t states = config.level_map.num_states();
          const auto rows = random_levels(data, 40, 24, states);
          const auto queries = random_levels(data, 8, 24, states);
          const auto check = [&](const char* phase) {
            SCOPED_TRACE(::testing::Message() << "bits=" << bits << " vth_sigma=" << vth_sigma
                                              << " drift_sigma=" << drift_sigma
                                              << " fault_rate=" << fault_rate << " " << phase);
            for (const auto& query : queries) {
              const std::vector<double> got = array.search_conductances(query);
              const std::vector<double> want = reference.totals(query);
              ASSERT_EQ(got.size(), want.size());
              for (std::size_t r = 0; r < got.size(); ++r) {
                ASSERT_LE(std::abs(got[r] - want[r]), 1e-7 * want[r]) << "row " << r;
              }
              EXPECT_EQ(array.k_nearest(query, 10),
                        rank_by_sensing(want, array.valid_mask(), SensingMode::kIdealSum,
                                        config.matchline, array.word_length(),
                                        config.sense_clock_period, 10));
            }
          };
          for (const auto& row : rows) {
            array.add_row(row);
            reference.add_row(row);
          }
          check("fresh");
          array.apply_drift(0.04, seed + 1000);
          reference.apply_drift(0.04, seed + 1000);
          check("after apply_drift");
          array.clear();
          reference.clear();
          for (const auto& row : rows) {
            array.add_row(row);
            reference.add_row(row);
          }
          check("after clear and re-add");
          // Offsets of several volts push factors past float range (inf and
          // 0): the on-state clamp must keep every saturated FeFET finite.
          array.apply_drift(4.0, seed + 2000);
          reference.apply_drift(4.0, seed + 2000);
          check("after a 4 V drift");
        }
      }
    }
  }
}

TEST(McamArray, GoldenConductanceBits) {
  // Pins the raw bits of every conductance-derived output - sweeps,
  // nearest(), k_nearest() and the readback health sums - across
  // programming noise, injected drift, stuck faults, apply_drift and
  // clear() + re-add. Any change to how cells are compiled, evaluated or
  // summed (order included) moves the hash. The expected value was
  // recorded with the compiled exponential factors on x86-64 glibc; it
  // depends on that libm's exp bits.
  testing_util::Fnv1a hash;
  std::uint64_t seed = 90;
  for (const unsigned bits : {1u, 3u, 6u}) {
    for (const double vth_sigma : {0.0, 0.05}) {
      for (const double drift_sigma : {0.0, 0.03}) {
        for (const double fault_rate : {0.0, 0.02}) {
          McamArrayConfig config;
          config.level_map = fefet::LevelMap{bits};
          config.vth_sigma = vth_sigma;
          config.drift_sigma = drift_sigma;
          config.stuck_short_rate = fault_rate;
          config.stuck_open_rate = fault_rate;
          config.seed = ++seed;
          McamArray array{config};
          Rng data{seed * 7919};
          const std::size_t states = config.level_map.num_states();
          const auto rows = random_levels(data, 40, 24, states);
          const auto queries = random_levels(data, 6, 24, states);
          const auto digest = [&] {
            for (const auto& query : queries) {
              for (double g : array.search_conductances(query)) hash.f64(g);
              const SearchOutcome outcome = array.nearest(query);
              hash.u64(outcome.row);
              hash.f64(outcome.conductance);
              for (std::size_t r : array.k_nearest(query, 10)) hash.u64(r);
            }
            for (std::size_t r = 0; r < array.num_rows(); ++r) {
              const RowHealth health = array.row_health(r);
              hash.u64(health.mismatched);
              hash.u64(health.faulty);
              hash.f64(health.sum_abs_shift_v);
              hash.f64(health.max_abs_shift_v);
            }
          };
          for (const auto& row : rows) array.add_row(row);
          ASSERT_TRUE(array.invalidate_row(3));  // nearest() must skip a tombstone.
          digest();
          EXPECT_EQ(array.apply_drift(0.04, seed + 1000), rows.size() * 24);
          digest();
          array.clear();
          for (const auto& row : rows) array.add_row(row);
          digest();
        }
      }
    }
  }
  EXPECT_EQ(hash.value(), 0x550c8d53eda2b9e0ULL) << std::hex << hash.value();
}

TEST(RankBySensing, MaskedRankingIsUnmaskedRankingWithoutTombstones) {
  // 4096 rows: k = 1 and 10 take the group-minima cut, larger k a sampled
  // one. Some live rows read +inf or NaN, which rank last among live rows
  // but still ahead of every tombstone.
  constexpr std::size_t n = 4096;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng{31};
  std::vector<double> conductances(n);
  std::vector<std::uint8_t> valid(n);
  for (std::size_t r = 0; r < n; ++r) {
    const double u = rng.uniform();
    conductances[r] =
        u < 0.02 ? inf : u < 0.04 ? nan : 1e-8 * static_cast<double>(1 + rng.index(40));
    valid[r] = rng.bernoulli(0.1) ? 0 : 1;
  }
  const std::size_t live = static_cast<std::size_t>(std::count(valid.begin(), valid.end(), 1));
  const circuit::MatchlineParams matchline{};
  for (const SensingMode mode : {SensingMode::kIdealSum, SensingMode::kMatchlineTiming}) {
    std::vector<std::size_t> live_order;
    for (const std::size_t r : rank_by_sensing(conductances, mode, matchline, 32, 0.0, n)) {
      if (valid[r] != 0) live_order.push_back(r);
    }
    for (const std::size_t k : {std::size_t{1}, std::size_t{10}, std::size_t{641}, live, n}) {
      const std::vector<std::size_t> masked =
          rank_by_sensing(conductances, valid, mode, matchline, 32, 0.0, k);
      const std::vector<std::size_t> expected(
          live_order.begin(), live_order.begin() + static_cast<std::ptrdiff_t>(std::min(k, live)));
      EXPECT_EQ(masked, expected) << "mode=" << static_cast<int>(mode) << " k=" << k;
      for (const std::size_t r : masked) ASSERT_NE(valid[r], 0) << "tombstone " << r << " ranked";
    }
  }
}

}  // namespace
}  // namespace mcam::cam
