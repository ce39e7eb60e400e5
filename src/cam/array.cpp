#include "cam/array.hpp"

#include "util/linalg.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace mcam::cam {

namespace {

/// Largest cell storage add_row reserves up front: 2^20 cells, 18 MiB.
constexpr std::size_t kMaxReservedCells = std::size_t{1} << 20;

}  // namespace

std::vector<std::size_t> rank_by_sensing(std::span<const double> row_conductances,
                                         SensingMode sensing,
                                         const circuit::MatchlineParams& matchline,
                                         std::size_t word_length,
                                         double sense_clock_period, std::size_t k) {
  return rank_by_sensing(row_conductances, {}, sensing, matchline, word_length,
                         sense_clock_period, k);
}

std::vector<std::size_t> rank_by_sensing(std::span<const double> row_conductances,
                                         std::span<const std::uint8_t> row_valid,
                                         SensingMode sensing,
                                         const circuit::MatchlineParams& matchline,
                                         std::size_t word_length,
                                         double sense_clock_period, std::size_t k) {
  // Slowest discharge = nearest: timing mode ranks negated crossing times,
  // so the ascending ranking yields descending times with the same
  // low-index tie-break. Each matchline discharges independently, so
  // tombstoning a row never perturbs the crossing times of the survivors.
  const bool timing = sensing == SensingMode::kMatchlineTiming;
  std::vector<double> times;
  if (timing) {
    const circuit::Matchline ml{matchline, word_length};
    const circuit::WinnerTakeAllSense sense{ml, sense_clock_period};
    times = sense.sense(row_conductances).times;
  }
  std::vector<std::uint64_t> keys(row_conductances.size());
  for (std::size_t r = 0; r < keys.size(); ++r) {
    keys[r] = order_key(timing ? -times[r] : row_conductances[r]);
  }
  // Tombstoned rows are gated off the WTA amplifier, so only live rows
  // compete: their keys are compacted in row order (which keeps the
  // low-index tie-break), ranked, and mapped back to rows. A heavily
  // masked sweep (a rare tag band) thus ranks only its few live keys.
  // Rows beyond a short mask count as valid, mirroring the empty-mask
  // (all-valid) convention.
  const auto masked_end =
      row_valid.begin() + static_cast<std::ptrdiff_t>(std::min(row_valid.size(), keys.size()));
  if (std::find(row_valid.begin(), masked_end, 0) == masked_end) return argsort_top_k(keys, k);
  std::vector<std::size_t> rows(keys.size());
  std::size_t live = 0;
  for (std::size_t r = 0; r < keys.size(); ++r) {
    keys[live] = keys[r];
    rows[live] = r;
    live += r >= row_valid.size() || row_valid[r] != 0;
  }
  keys.resize(live);
  std::vector<std::size_t> ranked = argsort_top_k(keys, k);
  for (std::size_t& r : ranked) r = rows[r];
  return ranked;
}

McamArray::McamArray(const McamArrayConfig& config)
    : config_(config), lut_(ConductanceLut::nominal(config.level_map, config.channel)),
      g_exp_cap_(config.channel.g0 * std::exp(60.0)), rng_(config.seed) {
  const auto& map = config_.level_map;
  const double v_slope = config_.channel.v_slope;
  const std::size_t n = map.num_states();
  drive_.reserve(n * n);
  for (std::size_t input = 0; input < n; ++input) {
    const double v_in = map.input_voltage(input);
    for (std::size_t stored = 0; stored < n; ++stored) {
      drive_.push_back(
          {lut_.g(input, stored),
           config_.channel.g0 * std::exp((map.invert(v_in) - map.left_fefet_vth(stored)) / v_slope),
           config_.channel.g0 * std::exp((v_in - map.right_fefet_vth(stored)) / v_slope)});
    }
  }
}

std::size_t McamArray::add_row(std::span<const std::uint16_t> levels) {
  if (levels.empty()) throw std::invalid_argument{"McamArray::add_row: empty row"};
  if (full()) {
    throw std::length_error{"McamArray::add_row: bank is full (max_rows = " +
                            std::to_string(config_.max_rows) + ")"};
  }
  if (word_length_ != 0 && levels.size() != word_length_) {
    throw std::invalid_argument{"McamArray::add_row: word length mismatch"};
  }
  // Validate before the first noise draw, so a rejected row leaves the
  // programming Rng - and every later row's noise - untouched (a snapshot
  // replays only the accepted rows).
  for (std::uint16_t level : levels) {
    if (level >= config_.level_map.num_states()) {
      throw std::out_of_range{"McamArray::add_row: level exceeds map"};
    }
  }
  if (word_length_ == 0 && config_.max_rows > 0 &&
      config_.max_rows <= kMaxReservedCells / levels.size()) {
    // A bounded bank never grows past its capacity: reserve it exactly,
    // so no growth slack stays allocated. A bound past any physical bank
    // grows on demand instead of allocating for rows it may never get.
    const std::size_t cells = config_.max_rows * levels.size();
    level_.reserve(cells);
    kind_.reserve(cells);
    dvth_.reserve(cells);
    factor_.reserve(cells);
    valid_.reserve(config_.max_rows);
  }
  word_length_ = levels.size();
  for (std::uint16_t level : levels) {
    FefetPair dvth;
    if (config_.vth_sigma > 0.0) {
      dvth.left = static_cast<float>(rng_.normal(0.0, config_.vth_sigma));
      dvth.right = static_cast<float>(rng_.normal(0.0, config_.vth_sigma));
    }
    if (config_.drift_sigma > 0.0) {
      dvth.left += static_cast<float>(rng_.normal(0.0, config_.drift_sigma));
      dvth.right += static_cast<float>(rng_.normal(0.0, config_.drift_sigma));
    }
    CellKind kind = CellKind::kNominal;
    if (config_.stuck_short_rate > 0.0 && rng_.bernoulli(config_.stuck_short_rate)) {
      kind = CellKind::kStuckShort;
      ++faulty_cells_;
    } else if (config_.stuck_open_rate > 0.0 && rng_.bernoulli(config_.stuck_open_rate)) {
      kind = CellKind::kStuckOpen;
      ++faulty_cells_;
    }
    level_.push_back(static_cast<std::uint8_t>(level));
    kind_.push_back(kind);
    dvth_.push_back(dvth);
    factor_.emplace_back();
    compile_cell(kind_.size() - 1);
  }
  valid_.push_back(1);
  ++valid_rows_;
  return valid_.size() - 1;
}

void McamArray::compile_cell(std::size_t at) {
  if (kind_[at] == CellKind::kStuckShort || kind_[at] == CellKind::kStuckOpen) return;
  const FefetPair dvth = dvth_[at];
  if (dvth.left == 0.0f && dvth.right == 0.0f) {
    kind_[at] = CellKind::kNominal;
    factor_[at] = {1.0f, 1.0f};
    return;
  }
  const double v_slope = config_.channel.v_slope;
  kind_[at] = CellKind::kOffset;
  factor_[at] = {static_cast<float>(std::exp(-static_cast<double>(dvth.left) / v_slope)),
                 static_cast<float>(std::exp(-static_cast<double>(dvth.right) / v_slope))};
}

void McamArray::program(std::span<const std::vector<std::uint16_t>> rows) {
  for (const auto& row : rows) add_row(row);
}

void McamArray::clear() noexcept {
  level_.clear();
  kind_.clear();
  dvth_.clear();
  factor_.clear();
  valid_.clear();
  valid_rows_ = 0;
  word_length_ = 0;
  faulty_cells_ = 0;
}

bool McamArray::invalidate_row(std::size_t i) {
  if (i >= num_rows()) throw std::out_of_range{"McamArray::invalidate_row: bad row"};
  if (!valid_[i]) return false;
  valid_[i] = 0;
  --valid_rows_;
  return true;
}

std::vector<std::uint16_t> McamArray::row_levels(std::size_t i) const {
  if (i >= num_rows()) throw std::out_of_range{"McamArray::row_levels: bad row"};
  const auto first = level_.begin() + static_cast<std::ptrdiff_t>(i * word_length_);
  return {first, first + static_cast<std::ptrdiff_t>(word_length_)};
}

std::vector<std::uint16_t> McamArray::row_readback(std::size_t i) const {
  if (i >= num_rows()) throw std::out_of_range{"McamArray::row_readback: bad row"};
  const auto& map = config_.level_map;
  std::vector<std::uint16_t> levels;
  levels.reserve(word_length_);
  for (std::size_t at = i * word_length_; at < (i + 1) * word_length_; ++at) {
    const double right = map.right_fefet_vth(level_[at]) + dvth_[at].right;
    const double left = map.left_fefet_vth(level_[at]) + dvth_[at].left;
    std::size_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < map.num_states(); ++s) {
      const double dr = map.right_fefet_vth(s) - right;
      const double dl = map.left_fefet_vth(s) - left;
      const double d = dr * dr + dl * dl;
      // Strict < keeps ties on the lowest state, so the zero-noise readback
      // reproduces row_levels() exactly.
      if (d < best_d) {
        best_d = d;
        best = s;
      }
    }
    levels.push_back(static_cast<std::uint16_t>(best));
  }
  return levels;
}

RowHealth McamArray::row_health(std::size_t i) const {
  const std::vector<std::uint16_t> readback = row_readback(i);  // bounds-checks i
  RowHealth health;
  health.cells = word_length_;
  for (std::size_t c = 0; c < word_length_; ++c) {
    const std::size_t at = i * word_length_ + c;
    if (kind_[at] == CellKind::kStuckShort || kind_[at] == CellKind::kStuckOpen) {
      ++health.faulty;
      continue;
    }
    if (readback[c] != level_[at]) ++health.mismatched;
    const double shift = std::max(std::abs(static_cast<double>(dvth_[at].left)),
                                  std::abs(static_cast<double>(dvth_[at].right)));
    health.sum_abs_shift_v += shift;
    health.max_abs_shift_v = std::max(health.max_abs_shift_v, shift);
  }
  return health;
}

std::size_t McamArray::apply_drift(double sigma, std::uint64_t seed) {
  if (sigma <= 0.0) return 0;
  Rng rng{seed};
  for (std::size_t at = 0; at < dvth_.size(); ++at) {
    dvth_[at].left += static_cast<float>(rng.normal(0.0, sigma));
    dvth_[at].right += static_cast<float>(rng.normal(0.0, sigma));
    compile_cell(at);
  }
  return dvth_.size();
}

bool McamArray::row_valid(std::size_t i) const {
  if (i >= num_rows()) throw std::out_of_range{"McamArray::row_valid: bad row"};
  return valid_[i] != 0;
}

std::vector<double> McamArray::search_conductances(
    std::span<const std::uint16_t> query) const {
  if (query.size() != word_length_) {
    throw std::invalid_argument{"McamArray::search: query length mismatch"};
  }
  // Each column's drive: the table block of its input state, indexed by
  // the stored level.
  const std::size_t n = config_.level_map.num_states();
  std::vector<const DriveEntry*> drive(query.size());
  for (std::size_t c = 0; c < query.size(); ++c) {
    if (query[c] >= n) throw std::out_of_range{"McamArray::search: level exceeds map"};
    drive[c] = drive_.data() + query[c] * n;
  }
  const double g_leak = config_.channel.g_leak;
  const double r_on = config_.channel.r_on;
  const double g_cap = g_exp_cap_;
  // A shorted cell conducts at the series-resistance cap whatever its
  // state or input, permanently leaking its matchline; an open cell only
  // leaks, i.e. it matches everything.
  const double g_short = g_leak + 1.0 / r_on;
  const double g_open = 2.0 * g_leak;
  const std::size_t w = word_length_;
  std::vector<double> totals(num_rows());
  for (std::size_t r = 0; r < totals.size(); ++r) {
    const std::uint8_t* level = level_.data() + r * w;
    const CellKind* kind = kind_.data() + r * w;
    const FefetPair* factor = factor_.data() + r * w;
    double g = 0.0;
    for (std::size_t c = 0; c < w; ++c) {
      const DriveEntry& entry = drive[c][level[c]];
      switch (kind[c]) {
        case CellKind::kNominal:
          g += entry.g_nominal;
          break;
        case CellKind::kOffset: {
          // fefet::channel_conductance per FeFET, with the exponential
          // gathered and scaled instead of evaluated.
          const double g_right = std::min(entry.e_right * factor[c].right, g_cap);
          const double g_left = std::min(entry.e_left * factor[c].left, g_cap);
          g += (g_leak + g_right / (1.0 + g_right * r_on)) +
               (g_leak + g_left / (1.0 + g_left * r_on));
          break;
        }
        case CellKind::kStuckShort:
          g += g_short;
          break;
        case CellKind::kStuckOpen:
          g += g_open;
          break;
      }
    }
    totals[r] = g;
  }
  return totals;
}

SearchOutcome McamArray::nearest(std::span<const std::uint16_t> query) const {
  if (valid_rows_ == 0) throw std::logic_error{"McamArray::nearest: array is empty"};
  SearchOutcome outcome;
  outcome.row_conductance = search_conductances(query);
  if (config_.sensing == SensingMode::kMatchlineTiming) {
    const circuit::Matchline ml{config_.matchline, word_length_};
    const circuit::WinnerTakeAllSense sense{ml, config_.sense_clock_period};
    outcome.sense = sense.sense(outcome.row_conductance);
    outcome.row = outcome.sense.winner;
    if (!valid_[outcome.row]) {
      // The latched winner was a tombstone (its validity latch gates the
      // amplifier): the first live row of the latch order wins instead.
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

std::vector<std::size_t> McamArray::k_nearest(std::span<const std::uint16_t> query,
                                              std::size_t k) const {
  if (valid_rows_ == 0) throw std::logic_error{"McamArray::k_nearest: array is empty"};
  return rank_by_sensing(search_conductances(query), valid_, SensingMode::kIdealSum,
                         config_.matchline, word_length_, config_.sense_clock_period, k);
}

std::vector<std::size_t> McamArray::exact_matches(std::span<const std::uint16_t> query,
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
