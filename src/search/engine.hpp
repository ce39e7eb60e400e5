// The three nearest-neighbor backends the paper compares (Sec. IV-A),
// behind the NnIndex interface (search/index.hpp):
//
//  1. SoftwareNnEngine - FP32 exact NN with cosine or Euclidean distance
//     (the GPU baseline).
//  2. TcamLshEngine    - LSH signatures stored in a TCAM, Hamming-distance
//     NN (the ref [3] baseline). The signatures come from the `random`
//     signature model (sig/model.hpp). Signature length defaults to the
//     CAM word length for the paper's iso-capacity comparison.
//  3. McamNnEngine     - features quantized to B bits, stored in the FeFET
//     MCAM, single-step NN search with the proposed distance function.
//
// Engines own their fitted state (scalers, encoders, programmed arrays).
// The first `add` on an empty engine calibrates the encoders (unless a
// fixed encoder was installed), later `add`s stream entries in, and
// `query` performs batched top-k search with the backend's native ranking:
// metric distance for software, matchline conductance (= Hamming popcount
// electrically) for the TCAM, matchline discharge current for the MCAM.
#pragma once

#include "cam/array.hpp"
#include "cam/tcam.hpp"
#include "encoding/normalize.hpp"
#include "encoding/quantizer.hpp"
#include "search/index.hpp"
#include "sig/model.hpp"

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace mcam::search {

/// FP32 software baseline over an arbitrary metric.
class SoftwareNnEngine final : public NnIndex {
 public:
  /// `metric_name`: any name `distance::metric_by_name` accepts ("cosine",
  /// "euclidean"/"l2", "sq-euclidean", "manhattan"/"l1", "linf").
  /// `rerank`: "" or "fp32" for the exact FP32 kernel path (default), or
  /// "int8" to opt into the symmetric int8 rerank ordering with exact FP32
  /// rescoring of the final top-k (euclidean/sq-euclidean/cosine only;
  /// other metrics silently stay FP32). Throws std::invalid_argument for
  /// an unknown metric or rerank mode.
  explicit SoftwareNnEngine(std::string metric_name, std::string rerank = "");

  void add(std::span<const std::vector<float>> rows, std::span<const int> labels) override;
  void clear() override;
  bool erase(std::size_t id) override;
  [[nodiscard]] std::size_t size() const override;
  [[nodiscard]] QueryResult query_one(std::span<const float> query,
                                      std::size_t k) const override;
  /// Sub-linear rerank: only the candidate rows' distances are evaluated
  /// (ExactNnIndex::k_nearest_among), bit-identical to the default
  /// filtered-full-ranking implementation.
  [[nodiscard]] QueryResult query_subset(std::span<const float> query,
                                         std::span<const std::size_t> ids,
                                         std::size_t k) const override;
  [[nodiscard]] std::string name() const override;
  void save_state(serve::io::Writer& out) const override;
  void load_state(serve::io::Reader& in) override;

  /// Telemetry tag of the kernel the next query would rank with
  /// ("scalar" | "avx2" | "neon" | "...+int8"; see QueryTelemetry::kernel).
  [[nodiscard]] const char* kernel_name() const;

 private:
  [[nodiscard]] ExactNnIndex make_index() const;

  std::string metric_name_;
  distance::MetricKind kind_;
  ExactNnIndex::RerankMode mode_ = ExactNnIndex::RerankMode::kFp32;
  std::optional<ExactNnIndex> index_;
};

/// TCAM + LSH baseline (Hamming distance over binary signatures).
class TcamLshEngine final : public NnIndex {
 public:
  /// `signature_bits`: LSH signature length = TCAM word length (> 0, else
  /// std::invalid_argument); `seed` draws the hyperplanes.
  TcamLshEngine(std::size_t signature_bits, std::uint64_t seed,
                cam::TcamArrayConfig config = cam::TcamArrayConfig{});

  /// Installs a scaler fitted on calibration (base-split) data; without it,
  /// the first add() fits z-scores on that batch itself. Essential for
  /// few-shot episodes, where the support set is too small to estimate
  /// feature statistics.
  void set_fixed_scaler(encoding::FeatureScaler scaler) { fixed_scaler_ = std::move(scaler); }

  void add(std::span<const std::vector<float>> rows, std::span<const int> labels) override;
  void calibrate(std::span<const std::vector<float>> rows) override;
  void clear() override;
  bool erase(std::size_t id) override;
  [[nodiscard]] std::size_t size() const override {
    return tcam_ ? tcam_->num_valid() : 0;
  }
  [[nodiscard]] QueryResult query_one(std::span<const float> query,
                                      std::size_t k) const override;
  [[nodiscard]] std::string name() const override;
  void save_state(serve::io::Writer& out) const override;
  void load_state(serve::io::Reader& in) override;

  /// The programmed TCAM (for inspection in tests).
  [[nodiscard]] const cam::TcamArray& tcam() const { return *tcam_; }
  /// Mutable device access for maintenance paths (health scrubbing / drift
  /// injection, obs/health). Callers own the engine's usual external
  /// synchronization; only valid once size() > 0.
  [[nodiscard]] cam::TcamArray& tcam() { return *tcam_; }

 private:
  cam::TcamArrayConfig config_;
  std::optional<encoding::FeatureScaler> fixed_scaler_;
  std::optional<encoding::FeatureScaler> scaler_;
  sig::RandomSignatureModel lsh_;  ///< Fitted at calibration.
  std::unique_ptr<cam::TcamArray> tcam_;
  std::vector<int> labels_;
};

/// The proposed FeFET MCAM engine.
class McamNnEngine final : public NnIndex {
 public:
  /// `config.level_map` fixes the bit precision; `clip_percentile` tunes
  /// the quantizer's outlier clipping. `config.lut` swaps in a measured
  /// cell table (the Fig. 9 path); a config McamArray refuses throws at
  /// the first calibrate or add, before anything is fitted or stored.
  explicit McamNnEngine(cam::McamArrayConfig config = cam::McamArrayConfig{},
                        double clip_percentile = 0.0);

  /// Installs a quantizer fitted on calibration (base-split) data; without
  /// it, the first add() fits the per-feature ranges on that batch.
  /// Essential for few-shot episodes (K*N support rows cannot estimate
  /// ranges). Throws if the quantizer's bit width disagrees with the level
  /// map.
  void set_fixed_quantizer(encoding::UniformQuantizer quantizer);

  void add(std::span<const std::vector<float>> rows, std::span<const int> labels) override;
  void calibrate(std::span<const std::vector<float>> rows) override;
  void clear() override;
  bool erase(std::size_t id) override;
  [[nodiscard]] std::size_t size() const override {
    return array_ ? array_->num_valid() : 0;
  }
  [[nodiscard]] QueryResult query_one(std::span<const float> query,
                                      std::size_t k) const override;
  [[nodiscard]] std::string name() const override;
  void save_state(serve::io::Writer& out) const override;
  void load_state(serve::io::Reader& in) override;

  /// The programmed MCAM (for inspection in tests).
  [[nodiscard]] const cam::McamArray& array() const { return *array_; }
  /// Mutable device access for maintenance paths (health scrubbing / drift
  /// injection, obs/health). Callers own the engine's usual external
  /// synchronization; only valid once size() > 0.
  [[nodiscard]] cam::McamArray& array() { return *array_; }
  /// Fitted quantizer (valid after the first add).
  [[nodiscard]] const encoding::UniformQuantizer& quantizer() const { return *quantizer_; }

 private:
  cam::McamArrayConfig config_;
  double clip_percentile_;
  std::optional<encoding::UniformQuantizer> fixed_quantizer_;
  std::optional<encoding::UniformQuantizer> quantizer_;
  std::unique_ptr<cam::McamArray> array_;
  std::vector<int> labels_;
};

}  // namespace mcam::search
