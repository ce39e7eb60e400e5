// Fault injection and top-k retrieval on the MCAM array.
//
// Stuck-short cells permanently leak their matchline (their row can never
// win), stuck-open cells match everything (their row looks nearer than it
// is); the few-shot robustness of the distance function under such defects
// is the hardware-yield counterpart of the Fig. 8 variation study.
#include "cam/array.hpp"

#include "experiments/harness.hpp"
#include "mann/fewshot.hpp"
#include "ml/embedding.hpp"

#include <gtest/gtest.h>

namespace mcam::cam {
namespace {

std::vector<std::vector<std::uint16_t>> random_rows(std::size_t rows, std::size_t cols,
                                                    std::uint64_t seed) {
  Rng rng{seed};
  std::vector<std::vector<std::uint16_t>> out(rows, std::vector<std::uint16_t>(cols));
  for (auto& row : out) {
    for (auto& level : row) level = static_cast<std::uint16_t>(rng.index(8));
  }
  return out;
}

TEST(Faults, NoFaultsByDefault) {
  McamArray array{McamArrayConfig{}};
  array.program(random_rows(10, 16, 1));
  EXPECT_EQ(array.num_faulty_cells(), 0u);
}

TEST(Faults, FaultCountTracksRate) {
  McamArrayConfig config;
  config.stuck_short_rate = 0.05;
  config.stuck_open_rate = 0.05;
  config.seed = 3;
  McamArray array{config};
  array.program(random_rows(50, 64, 2));
  // ~10% of 3200 cells; allow generous binomial slack.
  EXPECT_GT(array.num_faulty_cells(), 200u);
  EXPECT_LT(array.num_faulty_cells(), 440u);
}

TEST(Faults, StuckShortRowCannotWin) {
  McamArrayConfig config;
  config.stuck_short_rate = 1.0;  // Every cell of every row is shorted...
  config.seed = 5;
  McamArray shorted{config};
  shorted.add_row(std::vector<std::uint16_t>(8, 3));
  const auto g_shorted = shorted.search_conductances(std::vector<std::uint16_t>(8, 3));
  McamArray clean{McamArrayConfig{}};
  clean.add_row(std::vector<std::uint16_t>(8, 3));
  const auto g_clean = clean.search_conductances(std::vector<std::uint16_t>(8, 3));
  // ...so its self-match conductance is orders above a healthy row's.
  EXPECT_GT(g_shorted[0], 100.0 * g_clean[0]);
}

TEST(Faults, StuckOpenCellMatchesEverything) {
  McamArrayConfig config;
  config.stuck_open_rate = 1.0;
  config.seed = 7;
  McamArray open{config};
  open.add_row(std::vector<std::uint16_t>(8, 0));
  const auto g_far = open.search_conductances(std::vector<std::uint16_t>(8, 7));
  McamArray clean{McamArrayConfig{}};
  clean.add_row(std::vector<std::uint16_t>(8, 0));
  const auto g_clean_match = clean.search_conductances(std::vector<std::uint16_t>(8, 0));
  // A fully-open row at distance 7 per cell still "matches" (leakage only).
  EXPECT_LT(g_far[0], g_clean_match[0]);
}

TEST(Faults, ClearResetsFaultCount) {
  McamArrayConfig config;
  config.stuck_open_rate = 0.5;
  McamArray array{config};
  array.program(random_rows(10, 16, 9));
  EXPECT_GT(array.num_faulty_cells(), 0u);
  array.clear();
  EXPECT_EQ(array.num_faulty_cells(), 0u);
}

TEST(Faults, LowFaultRatePreservesMostSearches) {
  const auto rows = random_rows(32, 64, 11);
  McamArray clean{McamArrayConfig{}};
  clean.program(rows);
  McamArrayConfig faulty_config;
  faulty_config.stuck_short_rate = 0.002;
  faulty_config.stuck_open_rate = 0.002;
  faulty_config.seed = 13;
  McamArray faulty{faulty_config};
  faulty.program(rows);
  Rng rng{15};
  int agree = 0;
  constexpr int kQueries = 60;
  for (int q = 0; q < kQueries; ++q) {
    std::vector<std::uint16_t> query(64);
    for (auto& level : query) level = static_cast<std::uint16_t>(rng.index(8));
    if (clean.nearest(query).row == faulty.nearest(query).row) ++agree;
  }
  EXPECT_GT(agree, kQueries * 7 / 10);
}

TEST(Faults, FewShotAccuracyDegradesGracefully) {
  // Application-level: sub-percent defect rates barely move accuracy,
  // 10% defect rates visibly hurt.
  experiments::FewShotOptions options;
  options.episodes = 60;
  const auto run_with_faults = [&options](double short_rate, double open_rate) {
    const ml::GaussianPrototypeEmbedding features{options.eval_classes + 32,
                                                  options.feature_dim, options.intra_sigma,
                                                  options.seed};
    Rng calib_rng{options.seed ^ 0xca11b7a7eULL};
    std::vector<std::vector<float>> calibration;
    for (std::size_t i = 0; i < options.calibration_samples; ++i) {
      calibration.push_back(
          features.sample(options.eval_classes + calib_rng.index(32), calib_rng));
    }
    const auto quantizer = encoding::UniformQuantizer::fit(calibration, 3, 6.0);
    const data::EpisodeSampler sampler{options.eval_classes,
                                       [&features](std::size_t cls, Rng& rng) {
                                         return features.sample(cls, rng);
                                       }};
    std::uint64_t instance = 0;
    const mann::IndexFactory factory = [&, instance]() mutable {
      cam::McamArrayConfig config;
      config.stuck_short_rate = short_rate;
      config.stuck_open_rate = open_rate;
      config.seed = 1 + 1000003 * (++instance);
      auto engine = std::make_unique<search::McamNnEngine>(config);
      engine->set_fixed_quantizer(quantizer);
      return engine;
    };
    return mann::evaluate_few_shot(sampler, data::TaskSpec{5, 1, 5}, options.episodes,
                                   factory, options.seed)
        .accuracy;
  };
  const double clean = run_with_faults(0.0, 0.0);
  const double mild = run_with_faults(0.001, 0.001);
  const double severe = run_with_faults(0.05, 0.05);
  EXPECT_GT(mild, clean - 0.03);
  EXPECT_LT(severe, clean - 0.05);
}

TEST(TopK, OrderedByConductance) {
  McamArray array{McamArrayConfig{}};
  array.add_row(std::vector<std::uint16_t>{0, 0, 0, 0});  // d=0
  array.add_row(std::vector<std::uint16_t>{1, 0, 0, 0});  // d=1
  array.add_row(std::vector<std::uint16_t>{2, 2, 0, 0});  // d=4 (concentrated)
  array.add_row(std::vector<std::uint16_t>{7, 7, 7, 7});  // far
  const auto top = array.k_nearest(std::vector<std::uint16_t>{0, 0, 0, 0}, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 0u);
  EXPECT_EQ(top[1], 1u);
  EXPECT_EQ(top[2], 2u);
}

TEST(TopK, FirstEqualsNearest) {
  McamArray array{McamArrayConfig{}};
  array.program(random_rows(20, 16, 17));
  Rng rng{19};
  for (int q = 0; q < 20; ++q) {
    std::vector<std::uint16_t> query(16);
    for (auto& level : query) level = static_cast<std::uint16_t>(rng.index(8));
    EXPECT_EQ(array.k_nearest(query, 1)[0], array.nearest(query).row);
  }
}

TEST(TopK, FirstEqualsNearestUnderCoarseSenseClock) {
  // A 1 s sense clock latches both rows in the same cycle: the tie goes to
  // the lower index, although row 1 has the lower conductance. k_nearest
  // must rank under the configured sensing, as nearest() does.
  McamArrayConfig config;
  config.sensing = SensingMode::kMatchlineTiming;
  config.sense_clock_period = 1.0;
  McamArray array{config};
  array.add_row(std::vector<std::uint16_t>{0, 0, 0, 2});
  array.add_row(std::vector<std::uint16_t>{0, 0, 0, 1});
  const std::vector<std::uint16_t> query{0, 0, 0, 0};
  ASSERT_EQ(array.nearest(query).row, 0u);
  EXPECT_EQ(array.k_nearest(query, 2), (std::vector<std::size_t>{0, 1}));
}

TEST(TopK, ClampsToRowCount) {
  McamArray array{McamArrayConfig{}};
  array.program(random_rows(5, 8, 21));
  EXPECT_EQ(array.k_nearest(std::vector<std::uint16_t>(8, 0), 50).size(), 5u);
}

TEST(TopK, EmptyThrows) {
  McamArray array{McamArrayConfig{}};
  EXPECT_THROW((void)array.k_nearest(std::vector<std::uint16_t>{0}, 1), std::logic_error);
}

TEST(TopK, DistinctIndices) {
  McamArray array{McamArrayConfig{}};
  array.program(random_rows(12, 8, 23));
  const auto top = array.k_nearest(std::vector<std::uint16_t>(8, 3), 12);
  std::vector<std::size_t> sorted = top;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  EXPECT_EQ(sorted.size(), 12u);
}

}  // namespace
}  // namespace mcam::cam
