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

using kernels::cell_at;

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
  // One pass builds the keys and checks the mask. Rows beyond a short mask
  // count as valid, mirroring the empty-mask (all-valid) convention.
  std::vector<std::uint64_t> keys(row_conductances.size());
  const std::size_t masked = std::min(row_valid.size(), keys.size());
  std::uint8_t all_live = 1;
  for (std::size_t r = 0; r < keys.size(); ++r) {
    keys[r] = order_key(timing ? -times[r] : row_conductances[r]);
    if (r < masked) all_live &= static_cast<std::uint8_t>(row_valid[r] != 0);
  }
  if (all_live != 0) return argsort_top_k(keys, k);
  // Tombstoned rows are gated off the WTA amplifier, so only live rows
  // compete: their keys are compacted in row order (which keeps the
  // low-index tie-break), ranked, and mapped back to rows. A heavily
  // masked sweep (a rare tag band) thus ranks only its few live keys.
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
    : config_(config),
      lut_(config.lut ? *config.lut : ConductanceLut::nominal(config.level_map, config.channel)),
      rng_(config.seed) {
  const auto& map = config_.level_map;
  const auto& channel = config_.channel;
  const std::size_t n = map.num_states();
  if (config_.lut && lut_.num_states() != n) {
    throw std::invalid_argument{"McamArray: table has " + std::to_string(lut_.num_states()) +
                                " states, level map has " + std::to_string(n)};
  }
  if (config_.lut && (config_.vth_sigma > 0.0 || config_.drift_sigma > 0.0)) {
    throw std::invalid_argument{
        "McamArray: a measured table has no device model for vth_sigma or drift_sigma"};
  }
  drive_.states = n;
  drive_.g_nominal.reserve(n * n);
  drive_.e_left.reserve(n * n);
  drive_.e_right.reserve(n * n);
  for (std::size_t input = 0; input < n; ++input) {
    const double v_in = map.input_voltage(input);
    for (std::size_t stored = 0; stored < n; ++stored) {
      drive_.g_nominal.push_back(lut_.g(input, stored));
      drive_.e_left.push_back(
          channel.g0 * std::exp((map.invert(v_in) - map.left_fefet_vth(stored)) / channel.v_slope));
      drive_.e_right.push_back(
          channel.g0 * std::exp((v_in - map.right_fefet_vth(stored)) / channel.v_slope));
    }
  }
  drive_.g_leak = channel.g_leak;
  drive_.r_on = channel.r_on;
  drive_.g_cap = channel.g0 * std::exp(60.0);
  // A shorted cell conducts at the series-resistance cap whatever its
  // state or input, permanently leaking its matchline; an open cell only
  // leaks, i.e. it matches everything.
  drive_.g_short = channel.g_leak + 1.0 / channel.r_on;
  drive_.g_open = 2.0 * channel.g_leak;
}

std::size_t McamArray::add_row(std::span<const std::uint16_t> levels) {
  if (levels.empty()) throw std::invalid_argument{"McamArray::add_row: empty row"};
  if (full()) {
    throw std::length_error{"McamArray::add_row: bank is full (max_rows = " +
                            std::to_string(config_.max_rows) + ")"};
  }
  if (cells_.width != 0 && levels.size() != cells_.width) {
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
  const std::size_t row = num_rows();
  const bool first_row = cells_.width == 0;
  cells_.width = levels.size();
  if (first_row && config_.max_rows > 0 &&
      kernels::num_blocks(config_.max_rows) * kernels::kBlockRows <=
          kMaxReservedCells / levels.size()) {
    // A bounded bank never grows past its capacity: reserve it exactly
    // (in whole blocks), so no growth slack stays allocated. A bound past
    // any physical bank grows on demand instead of allocating for rows it
    // may never get.
    cells_.reserve(config_.max_rows);
    valid_.reserve(config_.max_rows);
  }
  if (row % kernels::kBlockRows == 0) cells_.add_block();
  for (std::size_t c = 0; c < levels.size(); ++c) {
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
    CellKind kind = CellKind::kNominal;
    if (config_.stuck_short_rate > 0.0 && rng_.bernoulli(config_.stuck_short_rate)) {
      kind = CellKind::kStuckShort;
      ++faulty_cells_;
    } else if (config_.stuck_open_rate > 0.0 && rng_.bernoulli(config_.stuck_open_rate)) {
      kind = CellKind::kStuckOpen;
      ++faulty_cells_;
    }
    const std::size_t at = cell_at(row, c, cells_.width);
    cells_.level[at] = static_cast<std::uint8_t>(levels[c]);
    cells_.kind[at] = kind;
    cells_.dvth_left[at] = dvth_left;
    cells_.dvth_right[at] = dvth_right;
    compile_cell(row, at);
  }
  valid_.push_back(1);
  ++valid_rows_;
  return valid_.size() - 1;
}

void McamArray::compile_cell(std::size_t row, std::size_t at) {
  CellKind& kind = cells_.kind[at];
  if (kind != CellKind::kStuckShort && kind != CellKind::kStuckOpen) {
    const double dvth_left = cells_.dvth_left[at];
    const double dvth_right = cells_.dvth_right[at];
    const bool nominal = dvth_left == 0.0 && dvth_right == 0.0;
    const double v_slope = config_.channel.v_slope;
    kind = nominal ? CellKind::kNominal : CellKind::kOffset;
    cells_.factor_left[at] = nominal ? 1.0f : static_cast<float>(std::exp(-dvth_left / v_slope));
    cells_.factor_right[at] =
        nominal ? 1.0f : static_cast<float>(std::exp(-dvth_right / v_slope));
  }
  if (kind != CellKind::kNominal) cells_.nominal[row / kernels::kBlockRows] = 0;
}

void McamArray::program(std::span<const std::vector<std::uint16_t>> rows) {
  for (const auto& row : rows) add_row(row);
}

void McamArray::clear() noexcept {
  cells_.clear();
  valid_.clear();
  valid_rows_ = 0;
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
  std::vector<std::uint16_t> levels(cells_.width);
  for (std::size_t c = 0; c < levels.size(); ++c) {
    levels[c] = cells_.level[cell_at(i, c, cells_.width)];
  }
  return levels;
}

std::vector<std::uint16_t> McamArray::row_readback(std::size_t i) const {
  if (i >= num_rows()) throw std::out_of_range{"McamArray::row_readback: bad row"};
  const auto& map = config_.level_map;
  std::vector<std::uint16_t> levels;
  levels.reserve(cells_.width);
  for (std::size_t c = 0; c < cells_.width; ++c) {
    const std::size_t at = cell_at(i, c, cells_.width);
    const double right = map.right_fefet_vth(cells_.level[at]) + cells_.dvth_right[at];
    const double left = map.left_fefet_vth(cells_.level[at]) + cells_.dvth_left[at];
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
  health.cells = cells_.width;
  for (std::size_t c = 0; c < cells_.width; ++c) {
    const std::size_t at = cell_at(i, c, cells_.width);
    if (cells_.kind[at] == CellKind::kStuckShort || cells_.kind[at] == CellKind::kStuckOpen) {
      ++health.faulty;
      continue;
    }
    if (readback[c] != cells_.level[at]) ++health.mismatched;
    const double shift = std::max(std::abs(static_cast<double>(cells_.dvth_left[at])),
                                  std::abs(static_cast<double>(cells_.dvth_right[at])));
    health.sum_abs_shift_v += shift;
    health.max_abs_shift_v = std::max(health.max_abs_shift_v, shift);
  }
  return health;
}

std::size_t McamArray::apply_drift(double sigma, std::uint64_t seed) {
  if (config_.lut) {
    throw std::logic_error{"McamArray::apply_drift: a measured table has no device model"};
  }
  if (sigma <= 0.0) return 0;
  Rng rng{seed};
  std::fill(cells_.nominal.begin(), cells_.nominal.end(), std::uint8_t{1});
  for (std::size_t r = 0; r < num_rows(); ++r) {
    for (std::size_t c = 0; c < cells_.width; ++c) {
      const std::size_t at = cell_at(r, c, cells_.width);
      cells_.dvth_left[at] += static_cast<float>(rng.normal(0.0, sigma));
      cells_.dvth_right[at] += static_cast<float>(rng.normal(0.0, sigma));
      compile_cell(r, at);
    }
  }
  return num_rows() * cells_.width;
}

bool McamArray::row_valid(std::size_t i) const {
  if (i >= num_rows()) throw std::out_of_range{"McamArray::row_valid: bad row"};
  return valid_[i] != 0;
}

std::vector<double> McamArray::search_conductances(
    std::span<const std::uint16_t> query) const {
  if (query.size() != cells_.width) {
    throw std::invalid_argument{"McamArray::search: query length mismatch"};
  }
  for (const std::uint16_t level : query) {
    if (level >= drive_.states) throw std::out_of_range{"McamArray::search: level exceeds map"};
  }
  std::vector<double> totals(kernels::num_blocks(num_rows()) * kernels::kBlockRows);
  kernels::active_ops().mcam_sweep(cells_, drive_, query, totals.data());
  totals.resize(num_rows());
  return totals;
}

SearchOutcome McamArray::nearest(std::span<const std::uint16_t> query) const {
  if (valid_rows_ == 0) throw std::logic_error{"McamArray::nearest: array is empty"};
  SearchOutcome outcome;
  outcome.row_conductance = search_conductances(query);
  if (config_.sensing == SensingMode::kMatchlineTiming) {
    const circuit::Matchline ml{config_.matchline, cells_.width};
    const circuit::WinnerTakeAllSense sense{ml, config_.sense_clock_period};
    outcome.sense = sense.sense(outcome.row_conductance);
    outcome.row = outcome.sense.winner;
    if (!valid_[outcome.row]) {
      // The latched winner was a tombstone (its validity latch gates the
      // amplifier): the first live row of the latch order wins instead.
      outcome.row = rank_by_sensing(outcome.row_conductance, valid_, config_.sensing,
                                    config_.matchline, cells_.width,
                                    config_.sense_clock_period, 1)
                        .front();
    }
  } else {
    outcome.row = rank_by_sensing(outcome.row_conductance, valid_, config_.sensing,
                                  config_.matchline, cells_.width,
                                  config_.sense_clock_period, 1)
                      .front();
  }
  outcome.conductance = outcome.row_conductance[outcome.row];
  return outcome;
}

std::vector<std::size_t> McamArray::k_nearest(std::span<const std::uint16_t> query,
                                              std::size_t k) const {
  if (valid_rows_ == 0) throw std::logic_error{"McamArray::k_nearest: array is empty"};
  return rank_by_sensing(search_conductances(query), valid_, config_.sensing,
                         config_.matchline, cells_.width, config_.sense_clock_period, k);
}

std::vector<std::size_t> McamArray::exact_matches(std::span<const std::uint16_t> query,
                                                  double g_match_limit_per_cell) const {
  const std::vector<double> totals = search_conductances(query);
  const double limit = g_match_limit_per_cell * static_cast<double>(cells_.width);
  std::vector<std::size_t> matches;
  for (std::size_t r = 0; r < totals.size(); ++r) {
    if (valid_[r] && totals[r] <= limit) matches.push_back(r);
  }
  return matches;
}

}  // namespace mcam::cam
