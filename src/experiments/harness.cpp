#include "experiments/harness.hpp"

#include "encoding/normalize.hpp"
#include "search/batch.hpp"
#include "search/sharded.hpp"

#include <cmath>
#include <stdexcept>

namespace mcam::experiments {

std::vector<Method> paper_methods() {
  return {Method::kMcam3, Method::kMcam2, Method::kTcamLsh, Method::kCosine,
          Method::kEuclidean};
}

std::string method_name(Method method) {
  switch (method) {
    case Method::kMcam3: return "3-bit MCAM";
    case Method::kMcam2: return "2-bit MCAM";
    case Method::kTcamLsh: return "TCAM+LSH";
    case Method::kCosine: return "Cosine";
    case Method::kEuclidean: return "Euclidean";
  }
  throw std::logic_error{"method_name: unknown method"};
}

std::string method_key(Method method) {
  switch (method) {
    case Method::kMcam3: return "mcam3";
    case Method::kMcam2: return "mcam2";
    case Method::kTcamLsh: return "tcam-lsh";
    case Method::kCosine: return "cosine";
    case Method::kEuclidean: return "euclidean";
  }
  throw std::logic_error{"method_key: unknown method"};
}

std::unique_ptr<search::NnIndex> make_engine(Method method,
                                             const search::EngineConfig& config) {
  return search::make_index(method_key(method), config);
}

double run_classification(const data::Dataset& dataset, Method method,
                          std::uint64_t split_seed, search::EngineConfig config) {
  const data::SplitDataset split = stratified_split(dataset, 0.8, split_seed);
  // Each method receives features in its canonical domain: the FP32
  // software baselines use z-scored features (standard NN-classification
  // practice - without it, large-magnitude features like wine's proline
  // dominate Euclidean, and shared positive offsets blind cosine),
  // TCAM+LSH z-scores internally, and the MCAM quantizer normalizes per
  // feature by construction. Scalers are fitted on the training split only.
  //
  // Capacity model: with bank_rows set, a training split larger than one
  // physical bank cannot be programmed into a single array - the run uses
  // the sharded-* twin of the engine, which tiles banks and merges
  // per-bank top-k (identical results under kIdealSum).
  std::string key = method_key(method);
  if (config.bank_rows > 0 && split.train.features.size() > config.bank_rows) {
    key = "sharded-" + key;
  }
  config.num_features = dataset.dim();
  std::unique_ptr<search::NnIndex> engine = search::make_index(key, config);
  // The whole test split is served as one batch through the parallel query
  // executor - the production path; results are identical to sequential
  // predict() calls (BatchExecutor guarantees order and determinism).
  const search::BatchExecutor executor;
  const auto batch_accuracy = [&](std::span<const std::vector<float>> queries,
                                  std::span<const int> labels) {
    const std::vector<search::QueryResult> results = executor.run(*engine, queries, 1);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (results[i].label == labels[i]) ++correct;
    }
    return queries.empty() ? 0.0
                           : static_cast<double>(correct) /
                                 static_cast<double>(queries.size());
  };
  if (method == Method::kEuclidean || method == Method::kCosine) {
    const auto scaler = encoding::FeatureScaler::fit_z_score(split.train.features);
    const auto train = scaler.transform_all(split.train.features);
    const auto test = scaler.transform_all(split.test.features);
    engine->add(train, split.train.labels);
    return batch_accuracy(test, split.test.labels);
  }
  engine->add(split.train.features, split.train.labels);
  return batch_accuracy(split.test.features, split.test.labels);
}

mann::FewShotResult run_few_shot(const data::TaskSpec& task, Method method,
                                 const FewShotOptions& fs_options,
                                 search::EngineConfig config) {
  // Feature model: held-out classes for episodes, plus a disjoint base pool
  // for encoder calibration (quantizer ranges / LSH scaler), mirroring the
  // SimpleShot deployment where the base split fixes all statistics.
  const std::size_t total_classes = fs_options.eval_classes + 32;
  const ml::GaussianPrototypeEmbedding features{
      total_classes,          fs_options.feature_dim, fs_options.intra_sigma,
      fs_options.seed,        fs_options.spike_prob,  fs_options.spike_sigma};

  Rng calib_rng{fs_options.seed ^ 0xca11b7a7eULL};
  std::vector<std::vector<float>> calibration;
  calibration.reserve(fs_options.calibration_samples);
  for (std::size_t i = 0; i < fs_options.calibration_samples; ++i) {
    const std::size_t base_cls = fs_options.eval_classes + calib_rng.index(32);
    calibration.push_back(features.sample(base_cls, calib_rng));
  }

  // Pre-fit the encoders once.
  std::optional<encoding::FeatureScaler> lsh_scaler;
  std::optional<encoding::UniformQuantizer> quantizer;
  if (method == Method::kTcamLsh) {
    lsh_scaler = encoding::FeatureScaler::fit_z_score(calibration);
  } else if (method == Method::kMcam2 || method == Method::kMcam3) {
    const unsigned bits = method == Method::kMcam3 ? 3 : 2;
    quantizer = encoding::UniformQuantizer::fit(calibration, bits, config.clip_percentile);
  }

  const data::EpisodeSampler sampler{
      fs_options.eval_classes,
      [&features](std::size_t cls, Rng& rng) { return features.sample(cls, rng); }};

  // One bank = one physical array instance. Every bank (and every episode)
  // re-seeds its variation sampling, exactly like programming a fresh chip.
  config.num_features = fs_options.feature_dim;
  std::uint64_t instance = 0;
  const search::BankFactory make_bank = [&]() {
    search::EngineConfig bank = config;
    bank.seed = config.seed + 1000003 * (++instance);
    auto engine = make_engine(method, bank);
    if (lsh_scaler) {
      static_cast<search::TcamLshEngine&>(*engine).set_fixed_scaler(*lsh_scaler);
    }
    if (quantizer) {
      static_cast<search::McamNnEngine&>(*engine).set_fixed_quantizer(*quantizer);
    }
    return engine;
  };
  // With a bank capacity configured, episodes whose support set outgrows
  // one bank exercise the shard layer's bank allocation; the fixed
  // encoders keep per-bank scores comparable.
  const mann::IndexFactory factory = [&]() -> std::unique_ptr<search::NnIndex> {
    if (config.bank_rows == 0) return make_bank();
    search::ShardedConfig shard;
    shard.bank_rows = config.bank_rows;
    return search::make_sharded(make_bank, shard);
  };

  return mann::evaluate_few_shot(sampler, task, fs_options.episodes, factory,
                                 fs_options.seed);
}

MeasuredProfile measure_2bit_profile(const Stack& stack, double measurement_noise_sigma,
                                     std::uint64_t seed) {
  const cam::ConductanceLut lut = measured_2bit_lut(stack, measurement_noise_sigma, seed);
  MeasuredProfile profile;
  const std::vector<double> by_distance = lut.mean_g_by_distance();
  for (std::size_t d = 0; d < by_distance.size(); ++d) {
    profile.distance.push_back(static_cast<double>(d));
    profile.conductance.push_back(by_distance[d]);
  }
  return profile;
}

cam::ConductanceLut measured_2bit_lut(const Stack& stack, double measurement_noise_sigma,
                                      std::uint64_t seed) {
  const fefet::LevelMap map = stack.level_map(2);
  // Program Monte-Carlo device pairs with the experimental single-pulse
  // scheme (1..4.5 V in 0.1 V steps is already the scheme default), then
  // "measure" the ML current with lognormal instrument noise.
  const cam::ConductanceLut programmed = cam::ConductanceLut::programmed(
      map, stack.programmer(2), stack.preisach(), stack.channel(),
      fefet::SamplingMode::kMonteCarlo, seed);
  Rng rng{seed ^ 0x6f1abcdULL};
  std::vector<double> values;
  values.reserve(map.num_states() * map.num_states());
  for (std::size_t input = 0; input < map.num_states(); ++input) {
    for (std::size_t stored = 0; stored < map.num_states(); ++stored) {
      const double clean = programmed.g(input, stored);
      const double noisy =
          clean * std::exp(rng.normal(0.0, measurement_noise_sigma));
      values.push_back(noisy);
    }
  }
  return cam::ConductanceLut::from_values(map.num_states(), std::move(values));
}

}  // namespace mcam::experiments
