#include "mann/fewshot.hpp"
#include "mann/memory.hpp"
#include "mann/pipeline.hpp"

#include "data/omniglot_synth.hpp"
#include "ml/trainer.hpp"
#include "search/engine.hpp"

#include <gtest/gtest.h>

namespace mcam::mann {
namespace {

std::unique_ptr<search::NnIndex> make_software_engine() {
  return std::make_unique<search::SoftwareNnEngine>("euclidean");
}

/// Pass-through embedding for pipeline tests that need exact geometry.
class IdentityEmbedding final : public ml::EmbeddingSource {
 public:
  explicit IdentityEmbedding(std::size_t dim) : dim_(dim) {}
  std::vector<float> embed(const std::vector<float>& input) override { return input; }
  [[nodiscard]] std::size_t dim() const override { return dim_; }

 private:
  std::size_t dim_;
};

TEST(FeatureMemory, AllShotsStoresEverySupport) {
  FeatureMemory memory{make_software_engine(), StoragePolicy::kAllShots};
  const std::vector<std::vector<float>> support{{0.0f}, {0.1f}, {1.0f}, {1.1f}};
  const std::vector<int> labels{0, 0, 1, 1};
  memory.store(support, labels);
  EXPECT_EQ(memory.lookup(std::vector<float>{0.05f}), 0);
  EXPECT_EQ(memory.lookup(std::vector<float>{1.05f}), 1);
}

TEST(FeatureMemory, PrototypeAveragesShots) {
  FeatureMemory memory{make_software_engine(), StoragePolicy::kPrototype};
  // Class 0 has one outlier shot at 10; the prototype (mean 3.4) should
  // absorb it, unlike all-shots NN which the outlier would win.
  const std::vector<std::vector<float>> support{{0.0f}, {0.1f}, {10.0f}, {20.0f}, {20.1f}};
  const std::vector<int> labels{0, 0, 0, 1, 1};
  memory.store(support, labels);
  EXPECT_EQ(memory.lookup(std::vector<float>{9.0f}), 0);   // Near class-0 prototype (3.37).
  EXPECT_EQ(memory.lookup(std::vector<float>{16.0f}), 1);  // Near class-1 prototype (20.05).
}

TEST(FeatureMemory, Validation) {
  EXPECT_THROW((FeatureMemory{nullptr, StoragePolicy::kAllShots}), std::invalid_argument);
  FeatureMemory memory{make_software_engine(), StoragePolicy::kAllShots};
  EXPECT_THROW(memory.store({}, {}), std::invalid_argument);
}

TEST(FeatureMemory, EngineNamePassesThrough) {
  FeatureMemory memory{make_software_engine(), StoragePolicy::kAllShots};
  EXPECT_EQ(memory.engine_name(), "euclidean (FP32)");
}

TEST(EvaluateFewShot, PerfectOnSeparableFeatures) {
  // Classes at distinct integer coordinates, tiny noise: accuracy 1.0.
  const data::EpisodeSampler sampler{
      10, [](std::size_t cls, Rng& rng) {
        return std::vector<float>{static_cast<float>(cls) +
                                      static_cast<float>(rng.normal(0.0, 0.01)),
                                  static_cast<float>(rng.normal(0.0, 0.01))};
      }};
  const FewShotResult result = evaluate_few_shot(sampler, data::TaskSpec{5, 1, 4}, 20,
                                                 make_software_engine, 7);
  EXPECT_DOUBLE_EQ(result.accuracy, 1.0);
  EXPECT_EQ(result.episodes, 20u);
  EXPECT_EQ(result.queries, 20u * 20u);
  EXPECT_GE(result.ci95, 0.0);
}

TEST(EvaluateFewShot, ChanceLevelOnUninformativeFeatures) {
  const data::EpisodeSampler sampler{20, [](std::size_t, Rng& rng) {
                                       return std::vector<float>{
                                           static_cast<float>(rng.normal())};
                                     }};
  const FewShotResult result = evaluate_few_shot(sampler, data::TaskSpec{5, 1, 4}, 60,
                                                 make_software_engine, 9);
  EXPECT_NEAR(result.accuracy, 0.2, 0.06);
}

TEST(EvaluateFewShot, DeterministicPerSeed) {
  const data::EpisodeSampler sampler{10, [](std::size_t cls, Rng& rng) {
                                       return std::vector<float>{
                                           static_cast<float>(cls) +
                                           static_cast<float>(rng.normal(0.0, 0.5))};
                                     }};
  const auto a = evaluate_few_shot(sampler, data::TaskSpec{5, 1, 2}, 25,
                                   make_software_engine, 11);
  const auto b = evaluate_few_shot(sampler, data::TaskSpec{5, 1, 2}, 25,
                                   make_software_engine, 11);
  EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
}

TEST(EvaluateFewShot, MoreShotsHelpOnNoisyFeatures) {
  const data::EpisodeSampler sampler{15, [](std::size_t cls, Rng& rng) {
                                       return std::vector<float>{
                                           static_cast<float>(cls) +
                                           static_cast<float>(rng.normal(0.0, 0.8))};
                                     }};
  const auto one_shot = evaluate_few_shot(sampler, data::TaskSpec{5, 1, 4}, 60,
                                          make_software_engine, 13,
                                          StoragePolicy::kPrototype);
  const auto five_shot = evaluate_few_shot(sampler, data::TaskSpec{5, 5, 4}, 60,
                                           make_software_engine, 13,
                                           StoragePolicy::kPrototype);
  EXPECT_GT(five_shot.accuracy, one_shot.accuracy);
}

TEST(EvaluateFewShot, Validation) {
  const data::EpisodeSampler sampler{5, [](std::size_t, Rng&) {
                                       return std::vector<float>{0.0f};
                                     }};
  EXPECT_THROW((void)evaluate_few_shot(sampler, data::TaskSpec{2, 1, 1}, 0,
                                       make_software_engine, 1),
               std::invalid_argument);
  EXPECT_THROW((void)evaluate_few_shot(sampler, data::TaskSpec{2, 1, 1}, 1,
                                       IndexFactory{}, 1),
               std::invalid_argument);
}

TEST(MannPipeline, EndToEndWithTrainedEmbedding) {
  // Train a small classifier on background character classes, then run the
  // full image -> embedding -> memory pipeline on held-out classes.
  constexpr std::size_t kBackgroundClasses = 12;
  constexpr std::size_t kHeldOutClasses = 5;
  const data::OmniglotGenerator background{kBackgroundClasses, data::OmniglotConfig{}, 3};
  const data::OmniglotGenerator held_out{kHeldOutClasses, data::OmniglotConfig{}, 999};

  Rng init_rng{5};
  ml::Sequential net = ml::make_mlp_classifier(background.feature_dim(),
                                               kBackgroundClasses, init_rng);
  const ml::SampleSource source = [&background](Rng& rng) {
    ml::TrainingSample sample;
    sample.label = rng.index(kBackgroundClasses);
    sample.input = background.render(sample.label, rng).flatten();
    return sample;
  };
  ml::TrainerConfig config;
  config.steps = 1200;
  Rng train_rng{7};
  (void)ml::train_classifier(net, source, config, train_rng);

  ml::TrainedEmbedding embedding{net, ml::kDefaultEmbeddingCut, 64};
  embedding.set_l2_normalize(true);

  MannPipeline pipeline{embedding, make_software_engine()};
  Rng episode_rng{9};
  std::vector<std::vector<float>> support;
  std::vector<int> labels;
  for (std::size_t cls = 0; cls < kHeldOutClasses; ++cls) {
    for (int shot = 0; shot < 3; ++shot) {
      support.push_back(held_out.render(cls, episode_rng).flatten());
      labels.push_back(static_cast<int>(cls));
    }
  }
  pipeline.store_support(support, labels);

  std::size_t correct = 0;
  constexpr std::size_t kQueries = 50;
  for (std::size_t q = 0; q < kQueries; ++q) {
    const auto cls = episode_rng.index(kHeldOutClasses);
    if (pipeline.classify(held_out.render(cls, episode_rng).flatten()) ==
        static_cast<int>(cls)) {
      ++correct;
    }
  }
  // Learned embeddings on unseen classes must beat chance (0.2) decisively.
  EXPECT_GT(static_cast<double>(correct) / kQueries, 0.6);
}

TEST(FeatureMemory, TopKLookupOutvotesOutlier) {
  FeatureMemory memory{make_software_engine(), StoragePolicy::kAllShots};
  // Nearest entry is a mislabeled outlier of class 9; the two next-nearest
  // agree on class 7, so the k=3 majority vote corrects the retrieval.
  const std::vector<std::vector<float>> support{{0.50f}, {0.60f}, {0.70f}, {5.0f}};
  const std::vector<int> labels{9, 7, 7, 9};
  memory.store(support, labels);
  EXPECT_EQ(memory.lookup(std::vector<float>{0.45f}, 1), 9);
  EXPECT_EQ(memory.lookup(std::vector<float>{0.45f}, 3), 7);
  const search::QueryResult retrieved = memory.retrieve(std::vector<float>{0.45f}, 3);
  ASSERT_EQ(retrieved.neighbors.size(), 3u);
  EXPECT_EQ(retrieved.neighbors[0].label, 9);
  EXPECT_EQ(retrieved.label, 7);
}

TEST(MannPipeline, TopKMajorityVoteCorrectsOutlierNeighbor) {
  // Satellite acceptance: k > 1 majority-vote classification through the
  // full pipeline (embedding -> memory -> vote).
  IdentityEmbedding embedding{1};
  MannPipeline pipeline{embedding, make_software_engine()};
  const std::vector<std::vector<float>> support{{0.50f}, {0.60f}, {0.70f}, {5.0f}, {5.1f}};
  const std::vector<int> labels{9, 7, 7, 9, 9};
  pipeline.store_support(support, labels);
  const std::vector<float> query{0.45f};
  EXPECT_EQ(pipeline.classify(query), 9);      // 1-NN hits the outlier.
  EXPECT_EQ(pipeline.classify(query, 3), 7);   // Majority vote corrects it.
  EXPECT_EQ(pipeline.retrieve(query, 3).neighbors.size(), 3u);
}

TEST(MannPipeline, TopKVoteWorksOnCamBackends) {
  // The same vote must hold when the memory is a CAM, ranking by matchline
  // conductance instead of metric distance.
  IdentityEmbedding embedding{4};
  auto engine = std::make_unique<search::McamNnEngine>();
  encoding::UniformQuantizer quantizer = encoding::UniformQuantizer::fit(
      std::vector<std::vector<float>>{{0.0f, 0.0f, 0.0f, 0.0f}, {8.0f, 8.0f, 8.0f, 8.0f}}, 3);
  engine->set_fixed_quantizer(quantizer);
  MannPipeline pipeline{embedding, std::move(engine)};
  const std::vector<std::vector<float>> support{
      {1.0f, 1.0f, 1.0f, 1.0f},   // class 9 outlier, nearest to the query
      {2.0f, 2.0f, 2.0f, 2.0f},   // class 7
      {2.5f, 2.5f, 2.5f, 2.5f},   // class 7
      {7.0f, 7.0f, 7.0f, 7.0f}};  // class 9, far away
  const std::vector<int> labels{9, 7, 7, 9};
  pipeline.store_support(support, labels);
  const std::vector<float> query{1.2f, 1.2f, 1.2f, 1.2f};
  EXPECT_EQ(pipeline.classify(query), 9);
  EXPECT_EQ(pipeline.classify(query, 3), 7);
}

TEST(MannPipeline, Validation) {
  Rng rng{11};
  ml::Sequential net = ml::make_mlp_classifier(16, 4, rng);
  ml::TrainedEmbedding embedding{net, ml::kDefaultEmbeddingCut, 64};
  MannPipeline pipeline{embedding, make_software_engine()};
  EXPECT_THROW(pipeline.store_support({}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace mcam::mann
