#include "cam/array.hpp"

#include "util/linalg.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace mcam::cam {

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
  std::vector<double> keys;
  if (sensing == SensingMode::kMatchlineTiming) {
    const circuit::Matchline ml{matchline, word_length};
    const circuit::WinnerTakeAllSense sense{ml, sense_clock_period};
    keys = sense.sense(row_conductances).times;
    // Slowest discharge = nearest: negate so the ascending argsort yields
    // descending times with the same low-index tie-break. Each matchline
    // discharges independently, so tombstoning a row never perturbs the
    // crossing times of the survivors.
    for (double& t : keys) t = -t;
  } else {
    keys.assign(row_conductances.begin(), row_conductances.end());
  }
  if (!row_valid.empty()) {
    // Tombstoned rows are gated off the WTA amplifier: give them an
    // infinite key so they sort behind every live row, then truncate the
    // ranking to the live count. Rows beyond a short mask count as valid,
    // mirroring the empty-mask (all-valid) convention.
    std::size_t live = keys.size();
    for (std::size_t r = 0; r < keys.size() && r < row_valid.size(); ++r) {
      if (!row_valid[r]) {
        keys[r] = std::numeric_limits<double>::infinity();
        --live;
      }
    }
    return argsort_top_k(keys, std::min(k, live));
  }
  return argsort_top_k(keys, k);
}

McamArray::McamArray(const McamArrayConfig& config)
    : config_(config), lut_(ConductanceLut::nominal(config.level_map, config.channel)),
      rng_(config.seed) {}

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
  word_length_ = levels.size();
  std::vector<CellState> row;
  row.reserve(levels.size());
  for (std::uint16_t level : levels) {
    CellState cell;
    cell.level = level;
    if (config_.vth_sigma > 0.0) {
      cell.dvth_left = static_cast<float>(rng_.normal(0.0, config_.vth_sigma));
      cell.dvth_right = static_cast<float>(rng_.normal(0.0, config_.vth_sigma));
    }
    if (config_.drift_sigma > 0.0) {
      cell.dvth_left += static_cast<float>(rng_.normal(0.0, config_.drift_sigma));
      cell.dvth_right += static_cast<float>(rng_.normal(0.0, config_.drift_sigma));
    }
    if (config_.stuck_short_rate > 0.0 && rng_.bernoulli(config_.stuck_short_rate)) {
      cell.fault = CellFault::kStuckShort;
      ++faulty_cells_;
    } else if (config_.stuck_open_rate > 0.0 && rng_.bernoulli(config_.stuck_open_rate)) {
      cell.fault = CellFault::kStuckOpen;
      ++faulty_cells_;
    }
    row.push_back(cell);
  }
  rows_.push_back(std::move(row));
  valid_.push_back(1);
  ++valid_rows_;
  return rows_.size() - 1;
}

void McamArray::program(std::span<const std::vector<std::uint16_t>> rows) {
  for (const auto& row : rows) add_row(row);
}

void McamArray::clear() noexcept {
  rows_.clear();
  valid_.clear();
  valid_rows_ = 0;
  word_length_ = 0;
  faulty_cells_ = 0;
}

bool McamArray::invalidate_row(std::size_t i) {
  if (i >= rows_.size()) throw std::out_of_range{"McamArray::invalidate_row: bad row"};
  if (!valid_[i]) return false;
  valid_[i] = 0;
  --valid_rows_;
  return true;
}

std::vector<std::uint16_t> McamArray::row_levels(std::size_t i) const {
  if (i >= rows_.size()) throw std::out_of_range{"McamArray::row_levels: bad row"};
  std::vector<std::uint16_t> levels;
  levels.reserve(rows_[i].size());
  for (const CellState& cell : rows_[i]) levels.push_back(cell.level);
  return levels;
}

std::vector<std::uint16_t> McamArray::row_readback(std::size_t i) const {
  if (i >= rows_.size()) throw std::out_of_range{"McamArray::row_readback: bad row"};
  const auto& map = config_.level_map;
  std::vector<std::uint16_t> levels;
  levels.reserve(rows_[i].size());
  for (const CellState& cell : rows_[i]) {
    const double right = map.right_fefet_vth(cell.level) + cell.dvth_right;
    const double left = map.left_fefet_vth(cell.level) + cell.dvth_left;
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
  const auto& row = rows_[i];
  RowHealth health;
  health.cells = row.size();
  for (std::size_t c = 0; c < row.size(); ++c) {
    if (row[c].fault != CellFault::kNone) {
      ++health.faulty;
      continue;
    }
    if (readback[c] != row[c].level) ++health.mismatched;
    const double shift = std::max(std::abs(static_cast<double>(row[c].dvth_left)),
                                  std::abs(static_cast<double>(row[c].dvth_right)));
    health.sum_abs_shift_v += shift;
    health.max_abs_shift_v = std::max(health.max_abs_shift_v, shift);
  }
  return health;
}

std::size_t McamArray::apply_drift(double sigma, std::uint64_t seed) {
  if (sigma <= 0.0) return 0;
  Rng rng{seed};
  std::size_t cells = 0;
  for (auto& row : rows_) {
    for (CellState& cell : row) {
      cell.dvth_left += static_cast<float>(rng.normal(0.0, sigma));
      cell.dvth_right += static_cast<float>(rng.normal(0.0, sigma));
      ++cells;
    }
  }
  return cells;
}

bool McamArray::row_valid(std::size_t i) const {
  if (i >= rows_.size()) throw std::out_of_range{"McamArray::row_valid: bad row"};
  return valid_[i] != 0;
}

double McamArray::cell_conductance(const CellState& cell, std::size_t input) const {
  if (cell.fault == CellFault::kStuckShort) {
    // Shorted cell: conducts at the series-resistance cap regardless of the
    // stored state or input - it permanently leaks its matchline.
    return config_.channel.g_leak + 1.0 / config_.channel.r_on;
  }
  if (cell.fault == CellFault::kStuckOpen) {
    // Open cell: only leakage, i.e. it matches everything.
    return 2.0 * config_.channel.g_leak;
  }
  if (cell.dvth_left == 0.0f && cell.dvth_right == 0.0f) {
    return lut_.g(input, cell.level);
  }
  const auto& map = config_.level_map;
  const double v_in = map.input_voltage(input);
  const double od_right = v_in - (map.right_fefet_vth(cell.level) + cell.dvth_right);
  const double od_left = map.invert(v_in) - (map.left_fefet_vth(cell.level) + cell.dvth_left);
  return fefet::channel_conductance(config_.channel, od_right) +
         fefet::channel_conductance(config_.channel, od_left);
}

std::vector<double> McamArray::search_conductances(
    std::span<const std::uint16_t> query) const {
  if (query.size() != word_length_) {
    throw std::invalid_argument{"McamArray::search: query length mismatch"};
  }
  std::vector<double> totals;
  totals.reserve(rows_.size());
  for (const auto& row : rows_) {
    double g_total = 0.0;
    for (std::size_t i = 0; i < row.size(); ++i) {
      g_total += cell_conductance(row[i], query[i]);
    }
    totals.push_back(g_total);
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
