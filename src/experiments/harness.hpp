// Application-level experiment harness shared by benches and tests.
//
// Provides the five NN-search methods the paper compares (Fig. 6/7 legend
// order: 3-bit MCAM, 2-bit MCAM, TCAM+LSH, cosine, Euclidean), a
// classification runner (Fig. 6 protocol: 80/20 stratified split, z-scored
// features, 1-NN) and a few-shot runner (Figs. 7/8/9c protocol: episodes
// over 64-d embedding features with encoders calibrated on base classes).
#pragma once

#include "data/dataset.hpp"
#include "data/episode.hpp"
#include "experiments/stack.hpp"
#include "mann/fewshot.hpp"
#include "ml/embedding.hpp"
#include "search/engine.hpp"
#include "search/factory.hpp"

#include <memory>
#include <string>
#include <vector>

namespace mcam::experiments {

/// The five compared NN-search implementations.
enum class Method { kMcam3, kMcam2, kTcamLsh, kCosine, kEuclidean };

/// Figure legend order of the paper.
[[nodiscard]] std::vector<Method> paper_methods();

/// Display name, e.g. "3-bit MCAM".
[[nodiscard]] std::string method_name(Method method);

/// search::EngineFactory registry key of `method`, e.g. "mcam3".
[[nodiscard]] std::string method_key(Method method);

/// Builds `method`'s engine through the search::EngineFactory registry:
/// `search::make_index(method_key(method), config)`. `config.num_features`
/// sizes the TCAM+LSH signature when `config.lsh_bits` is 0.
[[nodiscard]] std::unique_ptr<search::NnIndex> make_engine(
    Method method, const search::EngineConfig& config);

/// Engine config used by the paper-figure benches: quantizer range
/// calibrated to the 6th-94th percentile of the base features - the
/// deployment knob that maps the embedding distribution onto the 2^B
/// levels without wasting codes on tails.
[[nodiscard]] inline search::EngineConfig paper_engine_options() {
  search::EngineConfig config;
  config.clip_percentile = 6.0;
  return config;
}

/// Fig. 6 protocol on one dataset: stratified 80/20 split (seeded),
/// z-score scaling fitted on train, 1-NN accuracy on test. The engine is
/// built from `config` with num_features set to the dataset's width; with
/// `config.bank_rows` set, a training split larger than one bank runs on
/// the sharded-* twin of the engine (search/sharded.hpp).
[[nodiscard]] double run_classification(const data::Dataset& dataset, Method method,
                                        std::uint64_t split_seed,
                                        search::EngineConfig config = {});

/// Few-shot study configuration (Figs. 7/8/9c).
struct FewShotOptions {
  std::size_t eval_classes = 100;    ///< Held-out class pool size.
  std::size_t feature_dim = 64;      ///< Embedding width (paper: 64).
  double intra_sigma = 0.80;         ///< Isotropic within-class spread (calibrated).
  double spike_prob = 0.0;           ///< Sparse outlier-dimension probability (ablation).
  double spike_sigma = 2.2;          ///< Outlier magnitude sigma (ablation).
  std::size_t episodes = 150;        ///< Episodes per accuracy estimate.
  std::size_t calibration_samples = 256;  ///< Base samples for encoder fitting.
  std::uint64_t seed = 11;           ///< Master seed (episodes + features).
};

/// Runs one few-shot task with `method`; encoders (quantizer ranges,
/// LSH scaler) are calibrated on base-class features, as a deployment
/// would, then episodes use held-out classes only. Every bank is built
/// from `config` with num_features set to `fs_options.feature_dim` and its
/// own seed; with `config.bank_rows` set, episodes run on banks of that
/// many rows.
[[nodiscard]] mann::FewShotResult run_few_shot(const data::TaskSpec& task, Method method,
                                               const FewShotOptions& fs_options,
                                               search::EngineConfig config);

/// Fig. 9 virtual instrument: the 2-bit distance function measured on a
/// simulated GLOBALFOUNDRIES AND-array. `measurement_noise_sigma` is the
/// lognormal sigma of the conductance read-out (instrument + cycle-to-
/// cycle); 0 gives the clean simulation curve.
struct MeasuredProfile {
  std::vector<double> distance;     ///< 0..3 (2-bit).
  std::vector<double> conductance;  ///< Mean measured G per distance [S].
};
[[nodiscard]] MeasuredProfile measure_2bit_profile(const Stack& stack,
                                                   double measurement_noise_sigma,
                                                   std::uint64_t seed);

/// Fig. 9(c): the measured LUT itself (per-(I,S) noisy conductances). Set
/// as `cam::McamArrayConfig::lut`, it makes a `search::McamNnEngine` rank
/// rows by the measured distance function.
[[nodiscard]] cam::ConductanceLut measured_2bit_lut(const Stack& stack,
                                                    double measurement_noise_sigma,
                                                    std::uint64_t seed);

}  // namespace mcam::experiments
