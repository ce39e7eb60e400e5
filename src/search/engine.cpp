#include "search/engine.hpp"

#include "distance/kernels/kernels.hpp"
#include "energy/model.hpp"
#include "search/trit_serde.hpp"
#include "serve/io.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace mcam::search {

namespace {

void validate_batch(std::span<const std::vector<float>> rows, std::span<const int> labels,
                    const char* where) {
  if (rows.size() != labels.size() || rows.empty()) {
    throw std::invalid_argument{std::string{where} + ": bad training set"};
  }
}

/// cam::rank_by_sensing with the engine's k convention (k = 0 -> 1-NN) and
/// the array's validity mask (tombstoned rows never compete).
std::vector<std::size_t> rank_rows(const std::vector<double>& conductances,
                                   std::span<const std::uint8_t> valid,
                                   cam::SensingMode sensing,
                                   const circuit::MatchlineParams& matchline_params,
                                   std::size_t word_length, double sense_clock_period,
                                   std::size_t k) {
  return cam::rank_by_sensing(conductances, valid, sensing, matchline_params, word_length,
                              sense_clock_period, std::max<std::size_t>(k, 1));
}

}  // namespace

// --- SoftwareNnEngine ------------------------------------------------------

SoftwareNnEngine::SoftwareNnEngine(std::string metric_name, std::string rerank)
    : metric_name_(std::move(metric_name)) {
  // Validate the configuration eagerly so errors surface at build time of
  // the experiment, not at first add.
  const std::optional<distance::MetricKind> kind =
      distance::metric_kind_by_name(metric_name_);
  if (!kind) (void)distance::metric_by_name(metric_name_);  // Throws, listing names.
  kind_ = *kind;
  if (rerank == "int8") {
    mode_ = ExactNnIndex::RerankMode::kInt8;
  } else if (!rerank.empty() && rerank != "fp32") {
    throw std::invalid_argument{"SoftwareNnEngine: unknown rerank mode '" + rerank +
                                "' (known: fp32, int8)"};
  }
}

ExactNnIndex SoftwareNnEngine::make_index() const { return ExactNnIndex{kind_, mode_}; }

const char* SoftwareNnEngine::kernel_name() const {
  return index_ ? index_->kernel_name() : make_index().kernel_name();
}

std::string SoftwareNnEngine::name() const {
  const bool int8 = mode_ == ExactNnIndex::RerankMode::kInt8 &&
                    distance::kernels::int8_supported(kind_);
  return metric_name_ + (int8 ? " (int8 rerank)" : " (FP32)");
}

void SoftwareNnEngine::add(std::span<const std::vector<float>> rows,
                           std::span<const int> labels) {
  validate_batch(rows, labels, "SoftwareNnEngine::add");
  if (!index_) index_.emplace(make_index());
  index_->add_all(rows, labels);
}

void SoftwareNnEngine::clear() { index_.reset(); }

bool SoftwareNnEngine::erase(std::size_t id) {
  if (!index_ || id >= index_->total_rows()) {
    throw std::out_of_range{"SoftwareNnEngine::erase: unknown id"};
  }
  return index_->erase(id);
}

std::size_t SoftwareNnEngine::size() const { return index_ ? index_->size() : 0; }

QueryResult SoftwareNnEngine::query_one(std::span<const float> query, std::size_t k) const {
  if (!index_ || index_->size() == 0) {
    throw std::logic_error{"SoftwareNnEngine::query_one before add"};
  }
  QueryResult result;
  // k_nearest applies the k-convention itself (k = 0 -> 1-NN, clamped).
  result.neighbors = index_->k_nearest(query, k);
  result.label = majority_label(result.neighbors);
  result.telemetry.candidates = index_->size();
  result.telemetry.kernel = index_->kernel_name();
  return result;
}

QueryResult SoftwareNnEngine::query_subset(std::span<const float> query,
                                           std::span<const std::size_t> ids,
                                           std::size_t k) const {
  if (!index_ || index_->size() == 0) {
    throw std::logic_error{"SoftwareNnEngine::query_subset before add"};
  }
  if (ids.empty()) {
    throw std::invalid_argument{"SoftwareNnEngine::query_subset with no candidates"};
  }
  // Distances only for the (deduplicated, live) candidates - the true
  // sub-linear path; ordering matches the default implementation exactly.
  std::size_t live_candidates = 0;
  QueryResult result;
  result.neighbors = index_->k_nearest_among(query, ids, k, &live_candidates);
  if (result.neighbors.empty()) {
    throw std::invalid_argument{"SoftwareNnEngine::query_subset with no live candidates"};
  }
  result.label = majority_label(result.neighbors);
  result.telemetry.candidates = live_candidates;
  result.telemetry.sense_events = result.neighbors.size();
  result.telemetry.kernel = index_->kernel_name();
  return result;
}

// --- TcamLshEngine ---------------------------------------------------------

TcamLshEngine::TcamLshEngine(std::size_t signature_bits, std::uint64_t seed,
                             cam::TcamArrayConfig config)
    : config_(config), lsh_({.num_bits = signature_bits, .seed = seed}) {}

void TcamLshEngine::calibrate(std::span<const std::vector<float>> rows) {
  if (tcam_) return;  // Encoders are fitted once; later calls are no-ops.
  if (rows.empty()) throw std::invalid_argument{"TcamLshEngine::calibrate: no rows"};
  // Calibration: random-hyperplane LSH approximates *cosine* distance
  // only for centered data, so signatures are computed on z-scored
  // features. Fitted once, on the fixed scaler's data or this batch. The
  // random planes read only the batch's width.
  scaler_ = fixed_scaler_ ? *fixed_scaler_ : encoding::FeatureScaler::fit_z_score(rows);
  lsh_.fit(rows);
  tcam_ = std::make_unique<cam::TcamArray>(config_);
}

void TcamLshEngine::add(std::span<const std::vector<float>> rows,
                        std::span<const int> labels) {
  validate_batch(rows, labels, "TcamLshEngine::add");
  // Refuse an oversized batch before a first batch calibrates the encoders.
  if (config_.max_rows > 0 && (tcam_ ? tcam_->num_rows() : 0) + rows.size() > config_.max_rows) {
    throw std::length_error{"TcamLshEngine::add: batch exceeds bank capacity"};
  }
  calibrate(rows);
  // Encode the whole batch before mutating anything: a bad row (e.g. a
  // dimension mismatch) must leave rows and labels consistent.
  std::vector<std::vector<std::uint8_t>> signatures;
  signatures.reserve(rows.size());
  for (const auto& row : rows) {
    signatures.push_back(lsh_.encode_bits(scaler_->transform(row)));
  }
  for (const auto& bits : signatures) tcam_->add_row_bits(bits);
  labels_.insert(labels_.end(), labels.begin(), labels.end());
}

void TcamLshEngine::clear() {
  scaler_.reset();
  lsh_.reset();
  tcam_.reset();
  labels_.clear();
}

bool TcamLshEngine::erase(std::size_t id) {
  if (!tcam_ || id >= tcam_->num_rows()) {
    throw std::out_of_range{"TcamLshEngine::erase: unknown id"};
  }
  return tcam_->invalidate_row(id);
}

QueryResult TcamLshEngine::query_one(std::span<const float> query, std::size_t k) const {
  if (!tcam_ || tcam_->num_valid() == 0) {
    throw std::logic_error{"TcamLshEngine::query_one before add"};
  }
  const std::vector<double> conductances =
      tcam_->search_conductances(lsh_.encode_bits(scaler_->transform(query)));
  const std::vector<std::size_t> order =
      rank_rows(conductances, tcam_->valid_mask(), config_.sensing, config_.matchline,
                tcam_->word_length(), config_.sense_clock_period, k);
  QueryResult result = make_query_result(order, conductances, labels_);
  result.telemetry.candidates = tcam_->num_valid();
  result.telemetry.energy_j =
      energy::ArrayEnergyModel{energy::ArrayParams{}}.tcam_search_energy(
          tcam_->num_valid(), tcam_->word_length());
  return result;
}

std::string TcamLshEngine::name() const {
  return "TCAM+LSH (" + std::to_string(lsh_.num_bits()) + "b)";
}

// --- McamNnEngine ----------------------------------------------------------

McamNnEngine::McamNnEngine(cam::McamArrayConfig config, double clip_percentile)
    : config_(config), clip_percentile_(clip_percentile) {}

void McamNnEngine::set_fixed_quantizer(encoding::UniformQuantizer quantizer) {
  if (quantizer.bits() != config_.level_map.bits()) {
    throw std::invalid_argument{"McamNnEngine: quantizer bits do not match level map"};
  }
  fixed_quantizer_ = std::move(quantizer);
}

void McamNnEngine::calibrate(std::span<const std::vector<float>> rows) {
  if (array_) return;  // Encoders are fitted once; later calls are no-ops.
  if (rows.empty()) throw std::invalid_argument{"McamNnEngine::calibrate: no rows"};
  // The array refuses a bad config (e.g. a measured table with Vth noise)
  // before the quantizer is fitted.
  auto array = std::make_unique<cam::McamArray>(config_);
  quantizer_ = fixed_quantizer_ ? *fixed_quantizer_
                                : encoding::UniformQuantizer::fit(
                                      rows, config_.level_map.bits(), clip_percentile_);
  array_ = std::move(array);
}

void McamNnEngine::add(std::span<const std::vector<float>> rows,
                       std::span<const int> labels) {
  validate_batch(rows, labels, "McamNnEngine::add");
  // Refuse an oversized batch before a first batch calibrates the quantizer.
  if (config_.max_rows > 0 && (array_ ? array_->num_rows() : 0) + rows.size() > config_.max_rows) {
    throw std::length_error{"McamNnEngine::add: batch exceeds bank capacity"};
  }
  calibrate(rows);
  // Quantize the whole batch before programming: a bad row must leave the
  // array and labels consistent.
  std::vector<std::vector<std::uint16_t>> levels;
  levels.reserve(rows.size());
  for (const auto& row : rows) levels.push_back(quantizer_->quantize(row));
  for (const auto& level_row : levels) array_->add_row(level_row);
  labels_.insert(labels_.end(), labels.begin(), labels.end());
}

void McamNnEngine::clear() {
  array_.reset();
  quantizer_.reset();
  labels_.clear();
}

bool McamNnEngine::erase(std::size_t id) {
  if (!array_ || id >= array_->num_rows()) {
    throw std::out_of_range{"McamNnEngine::erase: unknown id"};
  }
  return array_->invalidate_row(id);
}

QueryResult McamNnEngine::query_one(std::span<const float> query, std::size_t k) const {
  if (!array_ || array_->num_valid() == 0) {
    throw std::logic_error{"McamNnEngine::query_one before add"};
  }
  const std::vector<std::uint16_t> levels = quantizer_->quantize(query);
  const std::vector<double> conductances = array_->search_conductances(levels);
  const std::vector<std::size_t> order =
      rank_rows(conductances, array_->valid_mask(), config_.sensing, config_.matchline,
                array_->word_length(), config_.sense_clock_period, k);
  QueryResult result = make_query_result(order, conductances, labels_);
  result.telemetry.candidates = array_->num_valid();
  result.telemetry.energy_j =
      energy::ArrayEnergyModel{energy::ArrayParams{}}.mcam_search_energy(
          array_->num_valid(), array_->word_length(), config_.level_map);
  return result;
}

std::string McamNnEngine::name() const {
  return std::to_string(config_.level_map.bits()) + "-bit MCAM" +
         (config_.lut ? " (LUT)" : "");
}

// --- Snapshot hooks --------------------------------------------------------
//
// Every engine serializes its fitted calibration state plus the *physical*
// row sequence (tombstones included) and the validity latches. Restore
// replays the physical writes against a fresh array built from the same
// config, which reconstructs the per-cell programming noise, injected
// faults, and RNG position bit-identically (the arrays sample them
// deterministically per add_row from the config seed), then re-gates the
// tombstoned latches.

void SoftwareNnEngine::save_state(serve::io::Writer& out) const {
  out.str("software-v1");
  out.str(metric_name_);
  const std::size_t total = index_ ? index_->total_rows() : 0;
  out.u64(total);
  std::vector<int> labels(total);
  std::vector<std::uint8_t> valid(total);
  for (std::size_t i = 0; i < total; ++i) {
    out.vec_f32(index_->vector_at(i));
    labels[i] = index_->label_at(i);
    valid[i] = index_->row_valid(i) ? 1 : 0;
  }
  out.vec_i32(labels);
  out.vec_u8(valid);
}

void SoftwareNnEngine::load_state(serve::io::Reader& in) {
  serve::io::expect_tag(in, "software-v1");
  const std::string metric = in.str();
  if (metric != metric_name_) {
    throw serve::io::SnapshotError{"metric mismatch: snapshot has '" + metric +
                                   "', engine is '" + metric_name_ + "'"};
  }
  clear();
  // Every serialized row is at least its own u64 length prefix, so raw
  // counts are validated against the remaining payload before reserving.
  const std::size_t total = in.checked_count(in.u64(), 8);
  std::vector<std::vector<float>> rows;
  rows.reserve(total);
  for (std::size_t i = 0; i < total; ++i) rows.push_back(in.vec_f32());
  const std::vector<int> labels = in.vec_i32();
  const std::vector<std::uint8_t> valid = in.vec_u8();
  serve::io::require_payload(labels.size() == total && valid.size() == total,
                  "software row/label/valid counts disagree");
  if (total == 0) return;
  index_.emplace(make_index());
  index_->add_all(rows, labels);
  for (std::size_t i = 0; i < valid.size(); ++i) {
    if (!valid[i]) index_->erase(i);
  }
}

void TcamLshEngine::save_state(serve::io::Writer& out) const {
  out.str("tcam-lsh-v1");
  out.u8(tcam_ ? 1 : 0);
  if (!tcam_) return;  // Uncalibrated engine: nothing beyond the tag.
  out.vec_f32(scaler_->offsets());
  out.vec_f32(scaler_->scales());
  out.u64(lsh_.num_features());
  out.u64(lsh_.num_bits());
  out.vec_f32(lsh_.planes());
  detail::write_tcam_rows(out, *tcam_);
  out.vec_u8(tcam_->valid_mask());
  out.vec_i32(labels_);
}

void TcamLshEngine::load_state(serve::io::Reader& in) {
  clear();
  std::optional<detail::TcamLshState> state = detail::read_tcam_lsh(in, lsh_, config_);
  if (!state) return;
  scaler_ = std::move(state->scaler);
  tcam_ = std::move(state->tcam);
  labels_ = std::move(state->labels);
}

void McamNnEngine::save_state(serve::io::Writer& out) const {
  out.str("mcam-v1");
  out.u8(array_ ? 1 : 0);
  if (!array_) return;  // Uncalibrated engine: nothing beyond the tag.
  out.u32(quantizer_->bits());
  out.vec_f32(quantizer_->lows());
  out.vec_f32(quantizer_->highs());
  out.u64(array_->num_rows());
  for (std::size_t r = 0; r < array_->num_rows(); ++r) {
    out.vec_u16(array_->row_levels(r));
  }
  out.vec_u8(array_->valid_mask());
  out.vec_i32(labels_);
}

void McamNnEngine::load_state(serve::io::Reader& in) {
  // "mcam-lut-v1" payloads, saved by the retired table-backed engine, have
  // this layout byte for byte.
  const std::string tag = in.str();
  if (tag != "mcam-v1" && tag != "mcam-lut-v1") {
    throw serve::io::SnapshotError{
        "engine payload tag mismatch: expected 'mcam-v1' or 'mcam-lut-v1', found '" + tag +
        "'"};
  }
  clear();
  if (in.u8() == 0) return;
  const std::uint32_t bits = in.u32();
  if (bits != config_.level_map.bits()) {
    throw serve::io::SnapshotError{"quantizer bits mismatch: snapshot has " +
                                   std::to_string(bits) + ", engine level map has " +
                                   std::to_string(config_.level_map.bits())};
  }
  std::vector<float> lo = in.vec_f32();
  std::vector<float> hi = in.vec_f32();
  auto array = std::make_unique<cam::McamArray>(config_);
  quantizer_ = encoding::UniformQuantizer::from_state(bits, std::move(lo), std::move(hi));
  array_ = std::move(array);
  const std::size_t num_rows = in.checked_count(in.u64(), 8);
  for (std::size_t r = 0; r < num_rows; ++r) {
    array_->add_row(in.vec_u16());
  }
  const std::vector<std::uint8_t> valid = in.vec_u8();
  labels_ = in.vec_i32();
  serve::io::require_payload(valid.size() == num_rows && labels_.size() == num_rows,
                  "mcam row/label/valid counts disagree");
  for (std::size_t r = 0; r < valid.size(); ++r) {
    if (!valid[r]) array_->invalidate_row(r);
  }
}

}  // namespace mcam::search
