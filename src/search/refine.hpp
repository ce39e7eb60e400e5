// Two-stage NN pipeline: a cheap coarse-signature Hamming prefilter in
// front of a precise rerank stage.
//
// The paper's MCAM answers every query by charging *every* stored row's
// matchline - exact, but at production scale the hot path should not pay
// O(N) precise compares per query. SEE-MCAM and FeReX scale multi-bit
// FeFET search with the same coarse-to-fine recipe this index implements:
//
//  1. coarse stage: binary signatures in a TCAM. The signatures come from
//     a pluggable sig::SignatureModel ("random" hyperplane LSH, "trained"
//     variance-balanced projections, or "itq" rotation-quantized PCA -
//     sig/model.hpp), fitted on the calibration rows inside `calibrate`.
//     One Hamming sweep (a far cheaper array than the multi-bit MCAM)
//     nominates the `candidate_factor * k` most-matching rows; with
//     `probes > 1` the sweep repeats for the multi-probe sequence
//     (sig/multiprobe.hpp) - neighboring signatures obtained by flipping
//     the query's lowest-margin bits - and each row keeps its best match
//     across probes, recovering recall at small candidate budgets without
//     widening the TCAM.
//  2. fine stage: any NnIndex backend (monolithic or sharded, MCAM or
//     software) reranks *only those candidates* via `query_subset` - only
//     the candidate matchlines are precharged and sensed, so the precise
//     stage's compare count and energy shrink by ~N / (candidate_factor*k).
//
// Both stages see the same add/erase/calibrate stream, so they share the
// global insertion-order id space; a tombstoned row disappears from both
// and can never be nominated (by any probe) or reranked.
//
// Recall is governed by `candidate_factor`, the signature model, and
// `probes` (bench_recall_qps sweeps the frontier per model). Setting
// `exhaustive_fallback` bypasses the coarse stage entirely - queries are
// answered by the fine backend alone, bit-identically, which is both the
// correctness oracle in tests and the escape hatch for recall-critical
// deployments. With `candidate_factor * k >= size()` the coarse stage
// nominates every live row and the rerank is likewise bit-identical to
// the fine backend.
//
// Built via the factory as `refine:coarse_bits=...,candidate_factor=...,
// sig=...,probes=...,fine=<spec>` (the `fine=` key consumes the rest of
// the spec, so the fine stage can itself be a full spec, e.g.
// `fine=sharded-mcam:bits=2`).
#pragma once

#include "cam/tcam.hpp"
#include "encoding/normalize.hpp"
#include "search/index.hpp"
#include "sig/model.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace mcam::search {

/// Two-stage pipeline knobs.
struct TwoStageConfig {
  /// Coarse candidates nominated per requested k (clamped to the live row
  /// count). Larger = better recall, more precise-stage compares.
  std::size_t candidate_factor = 4;
  /// Bypass the coarse stage: answer every query with the fine backend
  /// alone (bit-identical to not wrapping it at all).
  bool exhaustive_fallback = false;
  /// Total coarse Hamming sweeps per query (>= 1): sweep 1 uses the query
  /// signature, later sweeps the multi-probe flip sequence. Each sweep
  /// charges the TCAM once; rows keep their best match across sweeps.
  std::size_t probes = 1;
  /// Coarse TCAM cells reserved for metadata tags, appended after the
  /// signature bits: row r stores a binary tag-presence bitmap there
  /// (add_tagged; plain add stores all zeros), and a filtered query
  /// (query_filtered) writes exact kOne trits at its required band slots
  /// and kDontCare everywhere else, so rows missing a required tag bit
  /// mismatch in-array and drop out of the nomination. 0 = no band
  /// (bit-identical to the pre-band pipeline).
  std::size_t tag_bits = 0;
};

/// Composite NnIndex: coarse signature prefilter + precise rerank stage.
class TwoStageNnIndex final : public NnIndex {
 public:
  /// `model` turns (z-scored) features into coarse signatures and is
  /// fitted inside `calibrate`; `coarse_config` builds the signature
  /// TCAM; `fine` answers. Throws std::invalid_argument on a null model
  /// or fine stage, a zero candidate_factor, or a capacity-bounded
  /// coarse config (max_rows != 0): the coarse add must never fail after
  /// the fine stage accepted a batch, or the stages' id spaces would
  /// drift apart - capacity belongs to the fine stage / shard layer.
  TwoStageNnIndex(std::unique_ptr<sig::SignatureModel> model,
                  cam::TcamArrayConfig coarse_config, std::unique_ptr<NnIndex> fine,
                  TwoStageConfig config = TwoStageConfig{});

  /// Routes the batch into the fine stage first (its bank-capacity errors
  /// must leave the coarse stage untouched), then encodes every row
  /// through the signature model into the coarse TCAM. With tag_bits > 0
  /// the band cells are programmed all-zero: an untagged row never
  /// satisfies any band filter.
  void add(std::span<const std::vector<float>> rows, std::span<const int> labels) override;

  /// `add` with one tag-band presence bitmap per row (each exactly
  /// tag_bits wide, one byte per band cell, nonzero = set). Same ordering
  /// and rollback guarantees as `add`. Throws std::invalid_argument when
  /// the pipeline was built without a tag band or a bitmap has the wrong
  /// width.
  void add_tagged(std::span<const std::vector<float>> rows, std::span<const int> labels,
                  std::span<const std::vector<std::uint8_t>> bands);
  /// Calibrates the fine stage's encoders and fits the coarse scaler +
  /// signature model on the same rows (fit-once; `clear` drops it).
  void calibrate(std::span<const std::vector<float>> rows) override;
  void clear() override;
  /// Tombstones `id` in both stages so it can never be nominated again.
  bool erase(std::size_t id) override;
  [[nodiscard]] std::size_t size() const override { return fine_->size(); }

  /// Coarse top-(candidate_factor * k) candidates over the best-of-probes
  /// Hamming match, reranked by the fine stage. Telemetry:
  /// `coarse_candidates` / `fine_candidates` report the per-stage compare
  /// counts (coarse counts every probe sweep), `candidates` their sum,
  /// `probes_used` the sweeps executed, `coarse_margin` the conductance
  /// gap at the nomination cut, and `energy_j` the combined
  /// (probes * TCAM sweep + candidate-gated fine search) energy.
  [[nodiscard]] QueryResult query_one(std::span<const float> query,
                                      std::size_t k) const override;

  /// Rerank primitive: delegates straight to the fine stage. When the
  /// caller has already fixed the candidate set there is nothing for the
  /// coarse stage to nominate, and the fine backend *is* the pipeline's
  /// precise ranking (the documented candidate_factor * k >= size()
  /// limit of query_one) - so this override is both the contract-faithful
  /// and the sub-linear implementation, and it is what the store layer's
  /// post-filter fallback rides on.
  [[nodiscard]] QueryResult query_subset(std::span<const float> query,
                                         std::span<const std::size_t> ids,
                                         std::size_t k) const override;

  /// Filtered top-k: the coarse sweep runs with exact kOne trits at the
  /// band slots set in `required_band` (tag_bits wide, nonzero = the row
  /// must have that bit) and kDontCare across the rest of the band, so
  /// only rows whose stored bitmap covers every required slot compete;
  /// `verify` (exact metadata check, may be empty) then prunes band
  /// hash-collision false positives from the nominated candidates before
  /// the fine rerank. Ranking among eligible rows is by plain signature
  /// conductance - band cells contribute zero - so at a candidate budget
  /// covering every eligible row the result is bit-identical to the fine
  /// backend's ranking post-filtered to predicate-satisfying rows.
  /// Returns std::nullopt when no eligible row exists or `verify` rejects
  /// every nominated candidate (the caller falls back to post-filtering);
  /// telemetry reports the in-array exclusions as `filtered_out`. Throws
  /// std::invalid_argument when the pipeline has no tag band or
  /// `required_band` has the wrong width, std::logic_error before add or
  /// under exhaustive_fallback (no coarse stage runs - the caller's
  /// post-filter path is the only one).
  [[nodiscard]] std::optional<QueryResult> query_filtered(
      std::span<const float> query, std::size_t k,
      std::span<const std::uint8_t> required_band,
      const std::function<bool(std::size_t)>& verify) const;

  [[nodiscard]] std::string name() const override;

  /// Serializes the coarse scaler / signature-model planes / TCAM rows and
  /// the fine stage's payload; restore rebuilds them bit-identically (see
  /// the save_state contract in search/index.hpp). A pipeline without a
  /// tag band writes the exact "two-stage-v2" payload it always did; with
  /// tag_bits > 0 the payload tag is "two-stage-v3" (same layout plus the
  /// band width, and the TCAM rows are signature + band wide). `load_state`
  /// also accepts the pre-signature-model "two-stage-v1" payload (snapshot
  /// format v2), restoring it as a `random` model with probes = 1.
  void save_state(serve::io::Writer& out) const override;
  void load_state(serve::io::Reader& in) override;

  /// The signature model (for tests and diagnostics).
  [[nodiscard]] const sig::SignatureModel& signature_model() const noexcept {
    return *model_;
  }
  /// The coarse signature TCAM; throws std::logic_error before calibration.
  [[nodiscard]] const cam::TcamArray& coarse_tcam() const;
  /// Mutable variant for device-maintenance paths (health scrubbing / drift
  /// injection, obs/health); same pre-calibration throw.
  [[nodiscard]] cam::TcamArray& coarse_tcam();
  /// The fine (rerank) stage.
  [[nodiscard]] const NnIndex& fine() const noexcept { return *fine_; }
  /// Mutable fine stage for device-maintenance paths (obs/health).
  [[nodiscard]] NnIndex& fine() noexcept { return *fine_; }
  /// Pipeline configuration in use.
  [[nodiscard]] const TwoStageConfig& config() const noexcept { return config_; }
  /// Coarse cells reserved for the metadata tag band (0 = none).
  [[nodiscard]] std::size_t tag_bits() const noexcept { return config_.tag_bits; }
  /// Rows the coarse stage nominates for a top-k read: candidate_factor *
  /// max(k, 1), saturating at SIZE_MAX instead of wrapping. query_one and
  /// query_filtered nominate the smaller of this and their live or
  /// band-eligible rows.
  [[nodiscard]] std::size_t nomination_budget(std::size_t k) const noexcept {
    const std::size_t kk = std::max<std::size_t>(k, 1);
    constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
    return config_.candidate_factor > kMax / kk ? kMax : kk * config_.candidate_factor;
  }

 private:
  /// Fits the coarse side (scaler, model, TCAM) once; no-op when fitted.
  void ensure_coarse(std::span<const std::vector<float>> rows);
  /// Signature bits + tag band: the coarse TCAM word width.
  [[nodiscard]] std::size_t coarse_word_bits() const noexcept {
    return model_->num_bits() + config_.tag_bits;
  }
  /// Shared add path: `bands` is empty (all-zero band) or one bitmap per row.
  void add_rows(std::span<const std::vector<float>> rows, std::span<const int> labels,
                std::span<const std::vector<std::uint8_t>> bands);
  /// Best-of-probes coarse conductances for `query` with the whole tag
  /// band masked out (kDontCare), plus the number of sweeps executed.
  [[nodiscard]] std::pair<std::vector<double>, std::size_t> coarse_sweep(
      std::span<const float> query) const;
  /// The read path behind query_one and query_filtered: sweeps the coarse
  /// TCAM, nominates the best min(nomination_budget(kk), eligible_count)
  /// of the `eligible_count` rows set in `eligible`, drops the nominees
  /// `verify` rejects (when set), reranks the rest in the fine stage and
  /// books the telemetry and spans. `filtered_out` reports the live rows
  /// outside `eligible`. std::nullopt when no nominee is left.
  [[nodiscard]] std::optional<QueryResult> nominate_and_rerank(
      std::span<const float> query, std::size_t kk, std::span<const std::uint8_t> eligible,
      std::size_t eligible_count, const std::function<bool(std::size_t)>& verify) const;
  /// Restores the calibrated coarse block of a "two-stage-v2"/"-v3" payload.
  void load_coarse(serve::io::Reader& in);
  /// Restores the coarse stage of a legacy "two-stage-v1" payload: a
  /// TcamLshEngine "tcam-lsh-v1" block (detail::read_tcam_lsh).
  void load_legacy_coarse(serve::io::Reader& in);

  std::unique_ptr<sig::SignatureModel> model_;
  cam::TcamArrayConfig coarse_config_;
  std::unique_ptr<NnIndex> fine_;
  TwoStageConfig config_;
  std::optional<encoding::FeatureScaler> scaler_;
  std::unique_ptr<cam::TcamArray> tcam_;
};

/// Wraps the stages in a TwoStageNnIndex (convenience mirroring
/// make_index / make_sharded).
[[nodiscard]] std::unique_ptr<NnIndex> make_two_stage(
    std::unique_ptr<sig::SignatureModel> model, cam::TcamArrayConfig coarse_config,
    std::unique_ptr<NnIndex> fine, TwoStageConfig config = TwoStageConfig{});

}  // namespace mcam::search
