#include "cam/tcam.hpp"

#include "util/linalg.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace mcam::cam {

namespace {

/// Nominal table entries: one per trit, indexed by the trit's value.
constexpr std::size_t kNominalEntries = 3;

}  // namespace

TcamArray::TcamArray(const TcamArrayConfig& config)
    : config_(config), map_(1), rng_(config.seed) {
  for (const Trit t : {Trit::kZero, Trit::kOne, Trit::kDontCare}) {
    table_.push_back(
        {{cell_conductance(t, 0.0f, 0.0f, 0), cell_conductance(t, 0.0f, 0.0f, 1)}, 0.0f, 0.0f});
  }
}

std::size_t TcamArray::add_row(std::span<const Trit> word) {
  if (word.empty()) throw std::invalid_argument{"TcamArray::add_row: empty word"};
  if (full()) {
    throw std::length_error{"TcamArray::add_row: bank is full (max_rows = " +
                            std::to_string(config_.max_rows) + ")"};
  }
  if (word_length_ != 0 && word.size() != word_length_) {
    throw std::invalid_argument{"TcamArray::add_row: word length mismatch"};
  }
  // Validate before the first noise draw, so a rejected row leaves the
  // programming Rng - and every later row's noise - untouched.
  for (const Trit t : word) {
    if (static_cast<std::uint8_t>(t) > static_cast<std::uint8_t>(Trit::kDontCare)) {
      throw std::invalid_argument{"TcamArray::add_row: trit out of range"};
    }
  }
  // A recompile may give every cell a private entry; keep that in range
  // of the 4-byte cell offsets.
  if (kNominalEntries + cell_.size() + word.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error{"TcamArray::add_row: conductance table is full"};
  }
  word_length_ = word.size();
  for (const Trit t : word) {
    float dvth_left = 0.0f;
    float dvth_right = 0.0f;
    if (config_.vth_sigma > 0.0) {
      dvth_left = static_cast<float>(rng_.normal(0.0, config_.vth_sigma));
      dvth_right = static_cast<float>(rng_.normal(0.0, config_.vth_sigma));
    }
    if (config_.drift_sigma > 0.0) {
      dvth_left += static_cast<float>(rng_.normal(0.0, config_.drift_sigma));
      dvth_right += static_cast<float>(rng_.normal(0.0, config_.drift_sigma));
    }
    trits_.push_back(t);
    cell_.push_back(compile_cell(t, dvth_left, dvth_right));
  }
  valid_.push_back(1);
  ++valid_rows_;
  return valid_.size() - 1;
}

std::size_t TcamArray::add_row_bits(std::span<const std::uint8_t> bits) {
  std::vector<Trit> word;
  word.reserve(bits.size());
  for (std::uint8_t b : bits) word.push_back(b ? Trit::kOne : Trit::kZero);
  return add_row(word);
}

void TcamArray::clear() noexcept {
  trits_.clear();
  cell_.clear();
  table_.resize(kNominalEntries);
  valid_.clear();
  valid_rows_ = 0;
  word_length_ = 0;
}

bool TcamArray::invalidate_row(std::size_t i) {
  if (i >= num_rows()) throw std::out_of_range{"TcamArray::invalidate_row: bad row"};
  if (!valid_[i]) return false;
  valid_[i] = 0;
  --valid_rows_;
  return true;
}

std::vector<Trit> TcamArray::row_trits(std::size_t i) const {
  if (i >= num_rows()) throw std::out_of_range{"TcamArray::row_trits: bad row"};
  const auto first = trits_.begin() + static_cast<std::ptrdiff_t>(i * word_length_);
  return {first, first + static_cast<std::ptrdiff_t>(word_length_)};
}

std::vector<Trit> TcamArray::row_readback(std::size_t i) const {
  if (i >= num_rows()) throw std::out_of_range{"TcamArray::row_readback: bad row"};
  // Nominal (right, left) Vth targets per candidate trit; kDontCare erases
  // both FeFETs to the top of the range.
  const double targets[3][2] = {
      {map_.right_fefet_vth(0), map_.left_fefet_vth(0)},
      {map_.right_fefet_vth(1), map_.left_fefet_vth(1)},
      {map_.v_max(), map_.v_max()},
  };
  std::vector<Trit> word;
  word.reserve(word_length_);
  for (std::size_t c = i * word_length_; c < (i + 1) * word_length_; ++c) {
    const CompiledCell& cell = table_[cell_[c]];
    const std::size_t stored = static_cast<std::size_t>(trits_[c]);
    const double right = targets[stored][0] + cell.dvth_right;
    const double left = targets[stored][1] + cell.dvth_left;
    std::size_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t t = 0; t < 3; ++t) {
      const double dr = targets[t][0] - right;
      const double dl = targets[t][1] - left;
      const double d = dr * dr + dl * dl;
      if (d < best_d) {
        best_d = d;
        best = t;
      }
    }
    word.push_back(static_cast<Trit>(best));
  }
  return word;
}

RowHealth TcamArray::row_health(std::size_t i) const {
  const std::vector<Trit> readback = row_readback(i);  // bounds-checks i
  RowHealth health;
  health.cells = word_length_;
  for (std::size_t c = 0; c < word_length_; ++c) {
    const std::size_t at = i * word_length_ + c;
    const CompiledCell& cell = table_[cell_[at]];
    if (readback[c] != trits_[at]) ++health.mismatched;
    const double shift = std::max(std::abs(static_cast<double>(cell.dvth_left)),
                                  std::abs(static_cast<double>(cell.dvth_right)));
    health.sum_abs_shift_v += shift;
    health.max_abs_shift_v = std::max(health.max_abs_shift_v, shift);
  }
  return health;
}

std::size_t TcamArray::apply_drift(double sigma, std::uint64_t seed) {
  if (sigma <= 0.0) return 0;
  Rng rng{seed};
  // Recompile every cell from its drifted offsets into a fresh table, so
  // the private entries stay in row-major order.
  std::vector<CompiledCell> programmed = std::move(table_);
  table_.assign(programmed.begin(),
                programmed.begin() + static_cast<std::ptrdiff_t>(kNominalEntries));
  for (std::size_t c = 0; c < cell_.size(); ++c) {
    const CompiledCell& cell = programmed[cell_[c]];
    const float dvth_left = cell.dvth_left + static_cast<float>(rng.normal(0.0, sigma));
    const float dvth_right = cell.dvth_right + static_cast<float>(rng.normal(0.0, sigma));
    cell_[c] = compile_cell(trits_[c], dvth_left, dvth_right);
  }
  return cell_.size();
}

bool TcamArray::row_valid(std::size_t i) const {
  if (i >= num_rows()) throw std::out_of_range{"TcamArray::row_valid: bad row"};
  return valid_[i] != 0;
}

double TcamArray::cell_conductance(Trit trit, float dvth_left, float dvth_right,
                                   std::uint8_t input) const {
  const double v_in = map_.input_voltage(input ? 1 : 0);
  if (trit == Trit::kDontCare) {
    // Both FeFETs erased to the top of the Vth range: neither input level
    // can turn them on; only leakage remains.
    const double od_right = v_in - (map_.v_max() + dvth_right);
    const double od_left = map_.invert(v_in) - (map_.v_max() + dvth_left);
    return fefet::channel_conductance(config_.channel, od_right) +
           fefet::channel_conductance(config_.channel, od_left);
  }
  const auto stored = static_cast<std::size_t>(trit);
  const double od_right = v_in - (map_.right_fefet_vth(stored) + dvth_right);
  const double od_left = map_.invert(v_in) - (map_.left_fefet_vth(stored) + dvth_left);
  return fefet::channel_conductance(config_.channel, od_right) +
         fefet::channel_conductance(config_.channel, od_left);
}

std::uint32_t TcamArray::compile_cell(Trit trit, float dvth_left, float dvth_right) {
  if (dvth_left == 0.0f && dvth_right == 0.0f) return static_cast<std::uint32_t>(trit);
  table_.push_back({{cell_conductance(trit, dvth_left, dvth_right, 0),
                     cell_conductance(trit, dvth_left, dvth_right, 1)},
                    dvth_left,
                    dvth_right});
  return static_cast<std::uint32_t>(table_.size() - 1);
}

std::vector<double> TcamArray::sweep(std::span<const std::uint32_t> columns,
                                     std::span<const std::uint8_t> inputs) const {
  const std::size_t rows = num_rows();
  const std::size_t w = word_length_;
  const CompiledCell* table = table_.data();
  std::vector<double> totals(rows);
  // Four rows at a time share each column's drive and keep independent
  // accumulators, so the adds of different rows overlap. Every row still
  // sums its own cells in column order: the totals are bit-identical to a
  // row-at-a-time loop.
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const std::uint32_t* row0 = cell_.data() + r * w;
    const std::uint32_t* row1 = row0 + w;
    const std::uint32_t* row2 = row1 + w;
    const std::uint32_t* row3 = row2 + w;
    double g0 = 0.0;
    double g1 = 0.0;
    double g2 = 0.0;
    double g3 = 0.0;
    for (const std::uint32_t c : columns) {
      const std::uint8_t in = inputs[c];
      g0 += table[row0[c]].g[in];
      g1 += table[row1[c]].g[in];
      g2 += table[row2[c]].g[in];
      g3 += table[row3[c]].g[in];
    }
    totals[r] = g0;
    totals[r + 1] = g1;
    totals[r + 2] = g2;
    totals[r + 3] = g3;
  }
  for (; r < rows; ++r) {
    const std::uint32_t* row = cell_.data() + r * w;
    double g = 0.0;
    for (const std::uint32_t c : columns) g += table[row[c]].g[inputs[c]];
    totals[r] = g;
  }
  return totals;
}

std::vector<double> TcamArray::search_conductances(
    std::span<const std::uint8_t> query) const {
  if (query.size() != word_length_) {
    throw std::invalid_argument{"TcamArray::search: query length mismatch"};
  }
  std::vector<std::uint32_t> columns(query.size());
  std::vector<std::uint8_t> inputs(query.size());
  for (std::size_t c = 0; c < query.size(); ++c) {
    columns[c] = static_cast<std::uint32_t>(c);
    inputs[c] = query[c] ? 1 : 0;
  }
  return sweep(columns, inputs);
}

std::vector<double> TcamArray::search_conductances(std::span<const Trit> query) const {
  if (query.size() != word_length_) {
    throw std::invalid_argument{"TcamArray::search: query length mismatch"};
  }
  std::vector<std::uint32_t> columns;
  columns.reserve(query.size());
  std::vector<std::uint8_t> inputs(query.size());
  for (std::size_t c = 0; c < query.size(); ++c) {
    if (query[c] == Trit::kDontCare) continue;  // Both search lines low.
    columns.push_back(static_cast<std::uint32_t>(c));
    inputs[c] = query[c] == Trit::kOne ? 1 : 0;
  }
  return sweep(columns, inputs);
}

std::vector<std::uint8_t> TcamArray::ternary_match_mask(
    std::span<const Trit> query) const {
  if (query.size() != word_length_) {
    throw std::invalid_argument{"TcamArray::ternary_match_mask: query length mismatch"};
  }
  std::vector<std::uint8_t> mask;
  mask.reserve(num_rows());
  for (std::size_t r = 0; r < num_rows(); ++r) {
    const Trit* row = trits_.data() + r * word_length_;
    std::uint8_t match = 1;
    for (std::size_t i = 0; i < word_length_; ++i) {
      if (query[i] == Trit::kDontCare || row[i] == Trit::kDontCare) continue;
      if (row[i] != query[i]) {
        match = 0;
        break;
      }
    }
    mask.push_back(match);
  }
  return mask;
}

std::vector<std::size_t> TcamArray::hamming_distances(
    std::span<const std::uint8_t> query) const {
  if (query.size() != word_length_) {
    throw std::invalid_argument{"TcamArray::hamming_distances: query length mismatch"};
  }
  std::vector<std::size_t> distances;
  distances.reserve(num_rows());
  for (std::size_t r = 0; r < num_rows(); ++r) {
    const Trit* row = trits_.data() + r * word_length_;
    std::size_t d = 0;
    for (std::size_t i = 0; i < word_length_; ++i) {
      if (row[i] == Trit::kDontCare) continue;
      const bool stored = row[i] == Trit::kOne;
      if (stored != (query[i] != 0)) ++d;
    }
    distances.push_back(d);
  }
  return distances;
}

SearchOutcome TcamArray::nearest(std::span<const std::uint8_t> query) const {
  if (valid_rows_ == 0) throw std::logic_error{"TcamArray::nearest: array is empty"};
  SearchOutcome outcome;
  outcome.row_conductance = search_conductances(query);
  if (config_.sensing == SensingMode::kMatchlineTiming) {
    const circuit::Matchline ml{config_.matchline, word_length_};
    const circuit::WinnerTakeAllSense sense{ml, config_.sense_clock_period};
    outcome.sense = sense.sense(outcome.row_conductance);
    outcome.row = outcome.sense.winner;
    if (!valid_[outcome.row]) {
      outcome.row = rank_by_sensing(outcome.row_conductance, valid_, config_.sensing,
                                    config_.matchline, word_length_,
                                    config_.sense_clock_period, 1)
                        .front();
    }
  } else {
    outcome.row = rank_by_sensing(outcome.row_conductance, valid_, config_.sensing,
                                  config_.matchline, word_length_,
                                  config_.sense_clock_period, 1)
                      .front();
  }
  outcome.conductance = outcome.row_conductance[outcome.row];
  return outcome;
}

std::vector<std::size_t> TcamArray::exact_matches(std::span<const std::uint8_t> query,
                                                  double g_match_limit_per_cell) const {
  const std::vector<double> totals = search_conductances(query);
  const double limit = g_match_limit_per_cell * static_cast<double>(word_length_);
  std::vector<std::size_t> matches;
  for (std::size_t r = 0; r < totals.size(); ++r) {
    if (valid_[r] && totals[r] <= limit) matches.push_back(r);
  }
  return matches;
}

}  // namespace mcam::cam
