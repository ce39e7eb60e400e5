// Cross-module integration tests: each asserts one of the paper's
// headline claims end-to-end, wiring device physics -> arrays -> encoders
// -> applications exactly as the benches do (smaller budgets, fixed seeds).
#include "cam/acam.hpp"
#include "data/uci_synth.hpp"
#include "energy/model.hpp"
#include "experiments/harness.hpp"
#include "experiments/stack.hpp"
#include "fefet/variation.hpp"

#include <gtest/gtest.h>

namespace mcam {
namespace {

using experiments::Method;

TEST(PaperClaims, DistanceFunctionShape) {
  // Sec. III-B: exponential growth + saturating tail + derivative bell.
  const experiments::Stack stack;
  const auto lut = cam::ConductanceLut::nominal(stack.level_map(3), stack.channel());
  const auto profile = cam::distance_profile(lut, 0);
  // Growth of >= 2x per step through d=4.
  for (std::size_t d = 1; d <= 4; ++d) {
    EXPECT_GT(profile.conductance[d] / profile.conductance[d - 1], 2.0);
  }
  // Tail step d=6 -> 7 adds < 10% (saturation).
  EXPECT_LT(profile.conductance[7] / profile.conductance[6], 1.10);
}

TEST(PaperClaims, FullPipelineVariationToleranceAtFig5Sigma) {
  // The sigma the Fig. 5 Monte-Carlo study produces must be inside the
  // flat region of the Fig. 8 sweep: physics and application consistent.
  const experiments::Stack stack;
  const fefet::VariationStudy study{stack.preisach(), stack.vth_map(), stack.programmer(3)};
  const auto distributions = study.run(150, 99);
  const double sigma = fefet::VariationStudy::max_sigma(distributions);
  EXPECT_LT(sigma, 0.10);  // Fig. 5: up to ~80 mV.

  experiments::FewShotOptions options;
  options.episodes = 50;
  search::EngineConfig clean = experiments::paper_engine_options();
  search::EngineConfig at_fig5_sigma = clean;
  at_fig5_sigma.vth_sigma = sigma;
  const double acc_clean =
      experiments::run_few_shot(data::TaskSpec{5, 1, 5}, Method::kMcam3, options, clean)
          .accuracy;
  const double acc_noisy = experiments::run_few_shot(data::TaskSpec{5, 1, 5}, Method::kMcam3,
                                                     options, at_fig5_sigma)
                               .accuracy;
  EXPECT_GT(acc_noisy, acc_clean - 0.03);  // "No accuracy loss up to 80 mV".
}

TEST(PaperClaims, Figure6OrderingAcrossAllDatasets) {
  for (const data::Dataset& dataset : data::make_uci_suite(7)) {
    double mcam3 = 0.0;
    double lsh = 0.0;
    double euclidean = 0.0;
    constexpr int kSplits = 3;
    for (int s = 0; s < kSplits; ++s) {
      mcam3 += experiments::run_classification(dataset, Method::kMcam3, 100 + s);
      lsh += experiments::run_classification(dataset, Method::kTcamLsh, 100 + s);
      euclidean += experiments::run_classification(dataset, Method::kEuclidean, 100 + s);
    }
    EXPECT_GT(mcam3, lsh) << dataset.name;                 // MCAM beats TCAM+LSH.
    EXPECT_GT(mcam3, euclidean - 0.06 * kSplits) << dataset.name;  // ~software level.
  }
}

TEST(PaperClaims, Figure7AverageGains) {
  // 3-bit MCAM ~ +13%, 2-bit ~ +11.6% over TCAM+LSH averaged over tasks.
  experiments::FewShotOptions options;
  options.episodes = 60;
  const search::EngineConfig engine_options = experiments::paper_engine_options();
  const data::TaskSpec tasks[] = {{5, 1, 5}, {5, 5, 5}, {20, 1, 5}, {20, 5, 5}};
  double gain3 = 0.0;
  double gain2 = 0.0;
  for (const auto& task : tasks) {
    const double m3 =
        experiments::run_few_shot(task, Method::kMcam3, options, engine_options).accuracy;
    const double m2 =
        experiments::run_few_shot(task, Method::kMcam2, options, engine_options).accuracy;
    const double lsh =
        experiments::run_few_shot(task, Method::kTcamLsh, options, engine_options).accuracy;
    gain3 += m3 - lsh;
    gain2 += m2 - lsh;
  }
  EXPECT_NEAR(gain3 / 4.0, 0.13, 0.05);   // Paper: 13%.
  EXPECT_NEAR(gain2 / 4.0, 0.116, 0.05);  // Paper: 11.6%.
  EXPECT_GT(gain3, gain2);                // 3-bit >= 2-bit on average.
}

TEST(PaperClaims, EnergyDelayHeadlines) {
  const experiments::Stack stack;
  const energy::ArrayEnergyModel model{energy::ArrayParams{}};
  const energy::MannEndToEndModel e2e{energy::GpuBaselineParams{}, model};
  const auto map = stack.level_map(3);
  // Search +56%-ish, program cheaper, end-to-end 4.4x/4.5x.
  EXPECT_NEAR(model.mcam_search_energy(25, 64, map) / model.tcam_search_energy(25, 64),
              1.56, 0.12);
  EXPECT_LT(model.mcam_program_energy(25, 64, stack.programmer(3)),
            model.tcam_program_energy(25, 64, stack.pulse_scheme()));
  EXPECT_NEAR(e2e.latency_gain(e2e.mcam_cost(25, 64, map)), 4.5, 0.2);
  EXPECT_NEAR(e2e.energy_gain(e2e.mcam_cost(25, 64, map)), 4.4, 0.2);
}

TEST(PaperClaims, McamIsSpecialCaseOfAcam) {
  // Sec. II-A: every MCAM search result is reproducible by an ACAM storing
  // the narrow state windows and searched at the input voltages.
  const fefet::LevelMap map{3};
  cam::McamArray mcam{cam::McamArrayConfig{}};
  cam::AcamArray acam{map.center()};
  Rng rng{5};
  std::vector<std::vector<std::uint16_t>> rows;
  for (int r = 0; r < 8; ++r) {
    std::vector<std::uint16_t> levels(12);
    std::vector<cam::AnalogRange> ranges(12);
    for (std::size_t c = 0; c < 12; ++c) {
      levels[c] = static_cast<std::uint16_t>(rng.index(8));
      ranges[c] = cam::mcam_state_range(map, levels[c]);
    }
    rows.push_back(levels);
    mcam.add_row(levels);
    acam.add_row(ranges);
  }
  for (int q = 0; q < 20; ++q) {
    std::vector<std::uint16_t> query(12);
    std::vector<double> voltages(12);
    for (std::size_t c = 0; c < 12; ++c) {
      query[c] = static_cast<std::uint16_t>(rng.index(8));
      voltages[c] = map.input_voltage(query[c]);
    }
    const auto g_mcam = mcam.search_conductances(query);
    const auto g_acam = acam.search_conductances(voltages);
    for (std::size_t r = 0; r < g_mcam.size(); ++r) {
      EXPECT_NEAR(g_acam[r] / g_mcam[r], 1.0, 1e-6);
    }
  }
}

TEST(PaperClaims, SameEpisodesForEveryMethod) {
  // The harness must feed identical episode streams to every method (the
  // comparison isolates the distance function, not the data).
  experiments::FewShotOptions options;
  options.episodes = 10;
  const auto a =
      experiments::run_few_shot(data::TaskSpec{5, 1, 5}, Method::kCosine, options, {});
  const auto b =
      experiments::run_few_shot(data::TaskSpec{5, 1, 5}, Method::kEuclidean, options, {});
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.episodes, b.episodes);
}

}  // namespace
}  // namespace mcam
