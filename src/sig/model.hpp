// Coarse-signature models: how real-valued features become the binary
// signatures the two-stage pipeline's coarse TCAM stores and sweeps.
//
// The random-hyperplane LSH baseline (the `random` model, paper refs [3],
// [8]) is data-independent: every bit is the sign of a projection onto a
// Gaussian plane, so bits are spent uniformly over directions the data may
// not occupy. It also encodes the TCAM+LSH baseline engine
// (search::TcamLshEngine). The other models make the coarse stage
// *trainable* - the FeReX-style reconfigurability story - while keeping
// one runtime shape: after `fit`, every model is a linear projector (bit
// b = plane_b . x >= threshold_b), so encoding, multi-probe margins
// (sig/multiprobe.hpp), and snapshot state are uniform across models.
//
// Built-in registry keys (SignatureModelFactory):
//
//   random  - Gaussian hyperplanes through the origin, drawn from the
//             seed (one normal draw per weight, row-major) with zero
//             thresholds: the TCAM+LSH baseline's encoder, the pre-v3
//             coarse stage, and the v2-snapshot compat default.
//   trained - variance-balanced data projections: principal directions of
//             the calibration rows (power iteration on the covariance,
//             ml::Tensor substrate), bits apportioned across directions by
//             their spread (sqrt eigenvalue), and each direction's bits
//             thresholded at evenly spaced quantiles of the calibration
//             projections so every bit splits the data into balanced,
//             informative halves.
//   itq     - PCA + alternating-rotation quantization in the style of
//             Gong & Lazebnik's Iterative Quantization: project onto the
//             top principal components (cycled when num_bits exceeds the
//             feature count), then alternate between binarizing and
//             re-solving the orthogonal rotation that minimizes the
//             quantization error (orthogonal Procrustes via the polar
//             decomposition). Deterministic for a fixed seed.
//
// Models are fit on the same (scaler-transformed) calibration rows the
// pipeline's encoders see; `fit` is fit-once (reset() to refit), and the
// fitted planes/thresholds are the complete serializable state.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace mcam::sig {

/// The one margins-to-bits rule of the subsystem: bit b is set iff
/// margin_b >= 0. Every consumer of a signature derives it through this
/// helper (encode_bits, the pipeline's query path), so the sign
/// convention - part of the v2-snapshot bit-compat contract - lives in
/// exactly one place.
[[nodiscard]] std::vector<std::uint8_t> signature_bits(std::span<const float> margins);

/// Construction parameters shared by every signature model.
struct SignatureModelConfig {
  std::size_t num_bits = 0;  ///< Signature width (TCAM word length); > 0.
  std::uint64_t seed = 7;    ///< Seed for random planes / rotation init.
};

/// A fitted linear signature model: bit b of `encode_bits(x)` is
/// `dot(plane_b, x) >= threshold_b`.
class SignatureModel {
 public:
  virtual ~SignatureModel() = default;

  /// Registry key of the concrete model ("random", "trained", "itq").
  [[nodiscard]] virtual std::string key() const = 0;

  /// Fits planes and thresholds on the calibration rows. Fit-once: a
  /// second call on a fitted model is a no-op (call reset() to refit).
  /// Throws std::invalid_argument, leaving the model unfitted, on an empty
  /// calibration set, rows of unequal width, or a non-finite value (the
  /// message names the feature).
  virtual void fit(std::span<const std::vector<float>> rows) = 0;

  /// True once fit (or install_state) has produced planes.
  [[nodiscard]] bool fitted() const noexcept { return num_features_ > 0; }

  /// Drops the fitted state so the next fit starts fresh.
  void reset() noexcept;

  /// Per-bit signed margins `projection_b - threshold_b`: the signature is
  /// the margins' sign pattern, and |margin| is the bit's confidence - the
  /// quantity multi-probe flips smallest-first (sig/multiprobe.hpp). Each
  /// projection adds plane_b[f] * x[f] in ascending f from +0.0f. Throws
  /// std::logic_error before fit, std::invalid_argument on a width
  /// mismatch.
  [[nodiscard]] std::vector<float> project(std::span<const float> features) const;

  /// The signature of one feature vector, one byte (0 or 1) per bit - the
  /// TCAM programming/search shape: `signature_bits(project(features))`.
  [[nodiscard]] std::vector<std::uint8_t> encode_bits(
      std::span<const float> features) const;

  /// Signature width in bits (fixed at construction).
  [[nodiscard]] std::size_t num_bits() const noexcept { return config_.num_bits; }
  /// Input dimensionality (0 before fit).
  [[nodiscard]] std::size_t num_features() const noexcept { return num_features_; }
  /// Fitted projection matrix, row-major [num_bits x num_features].
  [[nodiscard]] const std::vector<float>& planes() const noexcept { return planes_; }
  /// Fitted per-bit thresholds [num_bits].
  [[nodiscard]] const std::vector<float>& thresholds() const noexcept {
    return thresholds_;
  }

  /// Installs previously fitted state (the snapshot-restore path): the
  /// rebuilt model encodes bit-identically to the one the state came
  /// from, independent of any RNG. Throws std::invalid_argument unless
  /// planes.size() == num_bits * num_features, thresholds.size() ==
  /// num_bits, and every value is finite.
  void install_state(std::size_t num_features, std::vector<float> planes,
                     std::vector<float> thresholds);

 protected:
  explicit SignatureModel(const SignatureModelConfig& config);

  /// Configuration (bits, seed) the model was built with.
  [[nodiscard]] const SignatureModelConfig& config() const noexcept { return config_; }

 private:
  SignatureModelConfig config_;
  std::size_t num_features_ = 0;
  std::vector<float> planes_;      ///< Row-major [num_bits x num_features].
  /// planes_ transposed, [num_features x num_bits], so project() runs across
  /// bits. Derived by install_state, never serialized.
  std::vector<float> planes_t_;
  std::vector<float> thresholds_;  ///< [num_bits].
};

/// Data-independent Gaussian hyperplanes (the LSH baseline). `fit` reads
/// only the rows' width: it draws num_bits x width standard normals from
/// `Rng{seed}`, row-major, as the planes, with zero thresholds.
class RandomSignatureModel final : public SignatureModel {
 public:
  explicit RandomSignatureModel(const SignatureModelConfig& config);
  [[nodiscard]] std::string key() const override { return "random"; }
  void fit(std::span<const std::vector<float>> rows) override;
};

/// Variance-balanced principal projections with quantile thresholds.
class TrainedSignatureModel final : public SignatureModel {
 public:
  explicit TrainedSignatureModel(const SignatureModelConfig& config);
  [[nodiscard]] std::string key() const override { return "trained"; }
  void fit(std::span<const std::vector<float>> rows) override;
};

/// PCA + alternating-rotation (ITQ-style) quantization.
class ItqSignatureModel final : public SignatureModel {
 public:
  explicit ItqSignatureModel(const SignatureModelConfig& config);
  [[nodiscard]] std::string key() const override { return "itq"; }
  void fit(std::span<const std::vector<float>> rows) override;
};

/// Process-global name -> builder registry for signature models,
/// mirroring search::EngineFactory: the factory's `sig=` spec key resolves
/// here, and new models (e.g. a supervised projection) register without
/// touching the engine layer.
class SignatureModelFactory {
 public:
  using Builder =
      std::function<std::unique_ptr<SignatureModel>(const SignatureModelConfig&)>;

  /// The global registry, with random/trained/itq pre-registered.
  [[nodiscard]] static SignatureModelFactory& instance();

  /// Registers (or replaces) a builder under `name`.
  void register_model(std::string name, Builder builder);

  /// Builds the model registered under `name`; throws
  /// std::invalid_argument listing the known model names when absent, and
  /// std::invalid_argument on a zero-bit config.
  [[nodiscard]] std::unique_ptr<SignatureModel> create(
      const std::string& name, const SignatureModelConfig& config) const;

  /// True when `name` is registered.
  [[nodiscard]] bool contains(const std::string& name) const;

  /// Sorted names of every registered model.
  [[nodiscard]] std::vector<std::string> registered_names() const;

 private:
  SignatureModelFactory();

  std::map<std::string, Builder> builders_;
};

}  // namespace mcam::sig
