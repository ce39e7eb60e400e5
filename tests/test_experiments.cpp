#include "experiments/harness.hpp"
#include "experiments/stack.hpp"

#include "data/uci_synth.hpp"
#include "search/engine.hpp"

#include <gtest/gtest.h>

#include <bit>

namespace mcam::experiments {
namespace {

TEST(Harness, PaperMethodsOrder) {
  const auto methods = paper_methods();
  ASSERT_EQ(methods.size(), 5u);
  EXPECT_EQ(method_name(methods[0]), "3-bit MCAM");
  EXPECT_EQ(method_name(methods[1]), "2-bit MCAM");
  EXPECT_EQ(method_name(methods[2]), "TCAM+LSH");
  EXPECT_EQ(method_name(methods[3]), "Cosine");
  EXPECT_EQ(method_name(methods[4]), "Euclidean");
}

/// A registry config over `num_features` inputs, defaults elsewhere.
search::EngineConfig config_of(std::size_t num_features) {
  search::EngineConfig config;
  config.num_features = num_features;
  return config;
}

TEST(Harness, MakeEngineBuildsEveryMethod) {
  for (Method method : paper_methods()) {
    const auto engine = make_engine(method, config_of(16));
    ASSERT_NE(engine, nullptr);
    EXPECT_FALSE(engine->name().empty());
  }
}

TEST(Harness, MakeEngineGoesThroughTheRegistry) {
  // The enum switch is gone: every Method maps to a registry key, and
  // the registry builds the same engine from that key.
  for (Method method : paper_methods()) {
    const std::string key = method_key(method);
    EXPECT_TRUE(search::EngineFactory::instance().contains(key)) << key;
    EXPECT_EQ(make_engine(method, config_of(16))->name(),
              search::make_index(key, config_of(16))->name());
  }
  EXPECT_THROW((void)search::make_index("no-such-engine", config_of(16)),
               std::invalid_argument);
}

TEST(Harness, LshDefaultsToWordLength) {
  const auto engine = make_engine(Method::kTcamLsh, config_of(37));
  EXPECT_EQ(engine->name(), "TCAM+LSH (37b)");
  search::EngineConfig config = config_of(37);
  config.lsh_bits = 512;
  const auto wide = make_engine(Method::kTcamLsh, config);
  EXPECT_EQ(wide->name(), "TCAM+LSH (512b)");
}

TEST(Harness, ClassificationReproducesPaperOrdering) {
  // Fig. 6 shape on Iris: MCAMs comparable to software, TCAM+LSH well
  // below (iso-capacity 4-bit signatures cannot encode 4 features).
  const data::Dataset iris = data::make_iris(3);
  const double mcam3 = run_classification(iris, Method::kMcam3, 5);
  const double euclidean = run_classification(iris, Method::kEuclidean, 5);
  const double lsh = run_classification(iris, Method::kTcamLsh, 5);
  EXPECT_GE(mcam3, euclidean - 0.05);
  EXPECT_GT(mcam3, lsh + 0.10);
  EXPECT_GE(mcam3, 0.90);
}

TEST(Harness, ClassificationDeterministicPerSeed) {
  const data::Dataset iris = data::make_iris(3);
  EXPECT_DOUBLE_EQ(run_classification(iris, Method::kMcam3, 11),
                   run_classification(iris, Method::kMcam3, 11));
}

TEST(Harness, ClassificationShardsWhenTrainExceedsBankCapacity) {
  // With a bank capacity set, a training split larger than one bank runs
  // on the sharded-* twin; under kIdealSum the accuracy is *identical* to
  // the monolithic engine (shard merge is bit-exact), so sharding is a
  // pure capacity/latency knob, never an accuracy trade.
  const data::Dataset iris = data::make_iris(3);  // 120 train rows.
  search::EngineConfig bounded;
  bounded.bank_rows = 32;  // 120 rows -> 4 banks.
  for (Method method : {Method::kMcam3, Method::kEuclidean, Method::kTcamLsh}) {
    EXPECT_DOUBLE_EQ(run_classification(iris, method, 11, bounded),
                     run_classification(iris, method, 11))
        << method_name(method);
  }
}

TEST(Harness, FewShotEpisodesExerciseBankAllocation) {
  // 5-way 5-shot = 25 support rows; bank_rows = 8 forces every episode
  // memory across 4 banks. The fixed (base-split) encoders keep per-bank
  // scores comparable, so accuracy matches the monolithic run exactly
  // under ideal sensing.
  FewShotOptions options;
  options.episodes = 15;
  const data::TaskSpec task{5, 5, 3};
  search::EngineConfig sharded = paper_engine_options();
  sharded.bank_rows = 8;
  const auto banked = run_few_shot(task, Method::kMcam3, options, sharded);
  const auto monolithic =
      run_few_shot(task, Method::kMcam3, options, paper_engine_options());
  EXPECT_DOUBLE_EQ(banked.accuracy, monolithic.accuracy);
  EXPECT_EQ(banked.queries, monolithic.queries);
}

TEST(Harness, FewShotSoftwareBeatsChanceMassively) {
  FewShotOptions options;
  options.episodes = 40;
  const auto result =
      run_few_shot(data::TaskSpec{5, 1, 5}, Method::kCosine, options, {});
  EXPECT_GT(result.accuracy, 0.95);
  EXPECT_EQ(result.episodes, 40u);
}

TEST(Harness, FewShotPaperShapeHolds) {
  FewShotOptions options;
  options.episodes = 80;
  const search::EngineConfig engine_options = paper_engine_options();
  const data::TaskSpec task{5, 1, 5};
  const double cosine = run_few_shot(task, Method::kCosine, options, engine_options).accuracy;
  const double mcam3 = run_few_shot(task, Method::kMcam3, options, engine_options).accuracy;
  const double mcam2 = run_few_shot(task, Method::kMcam2, options, engine_options).accuracy;
  const double lsh = run_few_shot(task, Method::kTcamLsh, options, engine_options).accuracy;
  EXPECT_GT(mcam3, lsh + 0.05);   // MCAM beats the TCAM+LSH baseline.
  EXPECT_GT(mcam2, lsh);          // Even at 2 bits.
  EXPECT_GE(mcam3, mcam2 - 0.01); // Higher precision is at least as good.
  EXPECT_GT(mcam3, cosine - 0.04);// Within a few percent of software.
}

TEST(Harness, FewShotDeterministicPerSeed) {
  FewShotOptions options;
  options.episodes = 20;
  const auto a = run_few_shot(data::TaskSpec{5, 1, 2}, Method::kMcam3, options,
                              paper_engine_options());
  const auto b = run_few_shot(data::TaskSpec{5, 1, 2}, Method::kMcam3, options,
                              paper_engine_options());
  EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
}

TEST(Harness, VariationSigmaDegradesGracefullyThenBreaks) {
  // Fig. 8 shape: flat to ~80 mV, clearly degraded by 300 mV.
  FewShotOptions options;
  options.episodes = 60;
  const data::TaskSpec task{5, 1, 5};
  search::EngineConfig clean = paper_engine_options();
  search::EngineConfig mild = clean;
  mild.vth_sigma = 0.08;
  search::EngineConfig broken = clean;
  broken.vth_sigma = 0.30;
  const double acc_clean = run_few_shot(task, Method::kMcam3, options, clean).accuracy;
  const double acc_mild = run_few_shot(task, Method::kMcam3, options, mild).accuracy;
  const double acc_broken = run_few_shot(task, Method::kMcam3, options, broken).accuracy;
  EXPECT_GT(acc_mild, acc_clean - 0.03);   // No loss at the Fig. 5 sigma.
  EXPECT_LT(acc_broken, acc_clean - 0.05); // Clear loss past the cliff.
}

TEST(Stack, ProgrammerIsCachedPerBits) {
  Stack stack;
  const auto& a = stack.programmer(3);
  const auto& b = stack.programmer(3);
  EXPECT_EQ(&a, &b);
  const auto& two_bit = stack.programmer(2);
  EXPECT_EQ(two_bit.num_levels(), 4u);
}

TEST(MeasuredTable, NominalTableAnswersLikeTheDefaultEngine) {
  // The LUT-sum methodology (Sec. IV-A) is the array's nominal cell path:
  // injecting the nominal table as a "measured" one changes no bit.
  const data::Dataset iris = data::make_iris(3);
  const data::SplitDataset split = stratified_split(iris, 0.8, 5);
  cam::McamArrayConfig config;
  config.lut = std::make_shared<const cam::ConductanceLut>(
      cam::ConductanceLut::nominal(config.level_map, config.channel));
  search::McamNnEngine table_engine{config};
  search::McamNnEngine array_engine{};
  table_engine.add(split.train.features, split.train.labels);
  array_engine.add(split.train.features, split.train.labels);
  for (const auto& query : split.test.features) {
    const search::QueryResult got = table_engine.query_one(query, 5);
    const search::QueryResult want = array_engine.query_one(query, 5);
    EXPECT_EQ(got.label, want.label);
    ASSERT_EQ(got.neighbors.size(), want.neighbors.size());
    for (std::size_t i = 0; i < want.neighbors.size(); ++i) {
      EXPECT_EQ(got.neighbors[i].index, want.neighbors[i].index) << "rank " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.neighbors[i].distance),
                std::bit_cast<std::uint64_t>(want.neighbors[i].distance))
          << "rank " << i;
    }
    EXPECT_EQ(got.telemetry.candidates, want.telemetry.candidates);
    EXPECT_EQ(got.telemetry.energy_j, want.telemetry.energy_j);
  }
  EXPECT_EQ(table_engine.name(), "3-bit MCAM (LUT)");
}

TEST(MeasuredTable, EngineRefusesABadTableBeforeStoringAnything) {
  const data::Dataset iris = data::make_iris(3);
  cam::McamArrayConfig config;
  config.level_map = fefet::LevelMap{3};
  config.lut =
      std::make_shared<const cam::ConductanceLut>(cam::ConductanceLut::nominal(fefet::LevelMap{2}));
  search::McamNnEngine mismatched{config};
  EXPECT_THROW(mismatched.calibrate(iris.features), std::invalid_argument);
  EXPECT_THROW(mismatched.add(iris.features, iris.labels), std::invalid_argument);
  EXPECT_EQ(mismatched.size(), 0u);
  EXPECT_THROW((void)mismatched.query_one(iris.features.front(), 1), std::logic_error);

  config.level_map = fefet::LevelMap{2};
  config.vth_sigma = 0.05;
  search::McamNnEngine noisy{config};
  EXPECT_THROW(noisy.add(iris.features, iris.labels), std::invalid_argument);
  EXPECT_EQ(noisy.size(), 0u);

  config.vth_sigma = 0.0;
  search::McamNnEngine engine{config};
  EXPECT_THROW((void)engine.query_one(std::vector<float>{1.0f}, 1), std::logic_error);
  EXPECT_THROW(engine.set_fixed_quantizer(
                   encoding::UniformQuantizer::fit(
                       std::vector<std::vector<float>>{{0.0f}, {1.0f}}, 3)),
               std::invalid_argument);
  engine.add(iris.features, iris.labels);
  EXPECT_EQ(engine.size(), iris.features.size());
}

TEST(VirtualInstrument, CleanProfileMonotone) {
  Stack stack;
  const MeasuredProfile profile = measure_2bit_profile(stack, 0.0, 3);
  ASSERT_EQ(profile.distance.size(), 4u);
  for (std::size_t d = 1; d < 4; ++d) {
    EXPECT_GT(profile.conductance[d], profile.conductance[d - 1]);
  }
}

TEST(VirtualInstrument, NoiseChangesButTracksTrend) {
  // Fig. 9: experimental curve follows the simulated trend with extra
  // noise; conductance still increases with distance.
  Stack stack;
  const MeasuredProfile clean = measure_2bit_profile(stack, 0.0, 3);
  const MeasuredProfile noisy = measure_2bit_profile(stack, 0.35, 3);
  bool differs = false;
  for (std::size_t d = 0; d < 4; ++d) {
    if (clean.conductance[d] != noisy.conductance[d]) differs = true;
  }
  EXPECT_TRUE(differs);
  EXPECT_GT(noisy.conductance[3], noisy.conductance[0]);
}

TEST(VirtualInstrument, MeasuredLutStillClassifies) {
  // Fig. 9(c): application accuracy with the measured distance function
  // stays close to the simulated one.
  Stack stack;
  const auto measured = measured_2bit_lut(stack, 0.35, 7);
  FewShotOptions options;
  options.episodes = 60;

  const auto quantizer_source = [&options]() {
    // Build the same calibration the harness would use.
    return options;
  };
  (void)quantizer_source;

  // Run few-shot with the measured LUT via a custom factory.
  const ml::GaussianPrototypeEmbedding features{options.eval_classes + 32,
                                                options.feature_dim, options.intra_sigma,
                                                options.seed};
  Rng calib_rng{options.seed ^ 0xca11b7a7eULL};
  std::vector<std::vector<float>> calibration;
  for (std::size_t i = 0; i < options.calibration_samples; ++i) {
    calibration.push_back(features.sample(options.eval_classes + calib_rng.index(32),
                                          calib_rng));
  }
  const auto quantizer = encoding::UniformQuantizer::fit(calibration, 2, 6.0);
  const data::EpisodeSampler sampler{options.eval_classes,
                                     [&features](std::size_t cls, Rng& rng) {
                                       return features.sample(cls, rng);
                                     }};
  cam::McamArrayConfig config;
  config.level_map = fefet::LevelMap{2};
  config.lut = std::make_shared<const cam::ConductanceLut>(measured);
  const mann::IndexFactory factory = [&config, &quantizer]() {
    auto engine = std::make_unique<search::McamNnEngine>(config);
    engine->set_fixed_quantizer(quantizer);
    return engine;
  };
  const auto measured_result = mann::evaluate_few_shot(sampler, data::TaskSpec{5, 1, 5},
                                                       options.episodes, factory,
                                                       options.seed);
  const auto simulated_result = run_few_shot(data::TaskSpec{5, 1, 5}, Method::kMcam2,
                                             options, paper_engine_options());
  EXPECT_GT(measured_result.accuracy, 0.7);
  EXPECT_NEAR(measured_result.accuracy, simulated_result.accuracy, 0.1);
}

}  // namespace
}  // namespace mcam::experiments
