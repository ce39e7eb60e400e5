#include "cam/tcam.hpp"

#include "util/linalg.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

namespace mcam::cam {

using kernels::cell_at;
using kernels::kTcamNominalEntries;

namespace {

/// Rejects a ternary query of the wrong width or with a symbol outside
/// {kZero, kOne, kDontCare}, before any work.
void check_ternary_query(std::span<const Trit> query, std::size_t width, const char* what) {
  if (query.size() != width) {
    throw std::invalid_argument{std::string{what} + ": query length mismatch"};
  }
  for (const Trit t : query) {
    if (static_cast<std::uint8_t>(t) > static_cast<std::uint8_t>(Trit::kDontCare)) {
      throw std::invalid_argument{std::string{what} + ": query trit out of range"};
    }
  }
}

}  // namespace

TcamArray::TcamArray(const TcamArrayConfig& config)
    : config_(config), map_(1), rng_(config.seed) {
  for (const Trit t : {Trit::kZero, Trit::kOne, Trit::kDontCare}) {
    cells_.table.push_back(
        {{cell_conductance(t, 0.0f, 0.0f, 0), cell_conductance(t, 0.0f, 0.0f, 1)}, 0.0f, 0.0f});
  }
}

std::size_t TcamArray::add_row(std::span<const Trit> word) {
  if (word.empty()) throw std::invalid_argument{"TcamArray::add_row: empty word"};
  if (full()) {
    throw std::length_error{"TcamArray::add_row: bank is full (max_rows = " +
                            std::to_string(config_.max_rows) + ")"};
  }
  if (cells_.width != 0 && word.size() != cells_.width) {
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
  const std::size_t row = num_rows();
  if (kTcamNominalEntries + (row + 1) * word.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error{"TcamArray::add_row: conductance table is full"};
  }
  cells_.width = word.size();
  if (row % kernels::kBlockRows == 0) cells_.add_block();
  for (std::size_t c = 0; c < word.size(); ++c) {
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
    compile_cell(row, cell_at(row, c, cells_.width), word[c], dvth_left, dvth_right);
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
  cells_.clear();
  valid_.clear();
  valid_rows_ = 0;
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
  std::vector<Trit> word(cells_.width);
  for (std::size_t c = 0; c < word.size(); ++c) {
    word[c] = static_cast<Trit>(cells_.trit[cell_at(i, c, cells_.width)]);
  }
  return word;
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
  word.reserve(cells_.width);
  for (std::size_t c = 0; c < cells_.width; ++c) {
    const std::size_t at = cell_at(i, c, cells_.width);
    const kernels::TcamEntry& cell = cells_.table[cells_.entry[at]];
    const std::size_t stored = cells_.trit[at];
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
  health.cells = cells_.width;
  for (std::size_t c = 0; c < cells_.width; ++c) {
    const std::size_t at = cell_at(i, c, cells_.width);
    const kernels::TcamEntry& cell = cells_.table[cells_.entry[at]];
    if (readback[c] != static_cast<Trit>(cells_.trit[at])) ++health.mismatched;
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
  // Recompile every cell from its drifted offsets into a fresh table. Both
  // the draws and the private entries stay in row-major order.
  std::vector<kernels::TcamEntry> programmed = std::move(cells_.table);
  cells_.table.assign(programmed.begin(),
                      programmed.begin() + static_cast<std::ptrdiff_t>(kTcamNominalEntries));
  std::fill(cells_.nominal.begin(), cells_.nominal.end(), std::uint8_t{1});
  for (std::size_t r = 0; r < num_rows(); ++r) {
    for (std::size_t c = 0; c < cells_.width; ++c) {
      const std::size_t at = cell_at(r, c, cells_.width);
      const kernels::TcamEntry& cell = programmed[cells_.entry[at]];
      const float dvth_left = cell.dvth_left + static_cast<float>(rng.normal(0.0, sigma));
      const float dvth_right = cell.dvth_right + static_cast<float>(rng.normal(0.0, sigma));
      compile_cell(r, at, static_cast<Trit>(cells_.trit[at]), dvth_left, dvth_right);
    }
  }
  return num_rows() * cells_.width;
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

void TcamArray::compile_cell(std::size_t row, std::size_t at, Trit trit, float dvth_left,
                             float dvth_right) {
  cells_.trit[at] = static_cast<std::uint8_t>(trit);
  if (dvth_left == 0.0f && dvth_right == 0.0f) {
    cells_.entry[at] = static_cast<std::uint32_t>(trit);
    return;
  }
  cells_.table.push_back({{cell_conductance(trit, dvth_left, dvth_right, 0),
                           cell_conductance(trit, dvth_left, dvth_right, 1)},
                          dvth_left,
                          dvth_right});
  cells_.entry[at] = static_cast<std::uint32_t>(cells_.table.size() - 1);
  cells_.nominal[row / kernels::kBlockRows] = 0;
}

std::vector<double> TcamArray::sweep(std::span<const std::uint8_t> query, bool ternary) const {
  std::vector<double> totals(kernels::num_blocks(num_rows()) * kernels::kBlockRows);
  kernels::active_ops().tcam_sweep(cells_, query, ternary, totals.data());
  totals.resize(num_rows());
  return totals;
}

std::vector<double> TcamArray::search_conductances(
    std::span<const std::uint8_t> query) const {
  if (query.size() != cells_.width) {
    throw std::invalid_argument{"TcamArray::search: query length mismatch"};
  }
  return sweep(query, false);
}

std::vector<double> TcamArray::search_conductances(std::span<const Trit> query) const {
  check_ternary_query(query, cells_.width, "TcamArray::search");
  // A don't-care column drives both search lines low: the kernel skips it.
  return sweep({reinterpret_cast<const std::uint8_t*>(query.data()), query.size()}, true);
}

std::vector<std::uint8_t> TcamArray::ternary_match_mask(
    std::span<const Trit> query) const {
  check_ternary_query(query, cells_.width, "TcamArray::ternary_match_mask");
  // Only a definite query column can reject a row. Each one is a single
  // 8-lane load per block: lane byte x = stored ^ query bit is 0 on a
  // match, 1 on the opposite bit, and 2 or 3 on a stored don't-care, so a
  // lane mismatches exactly when bit 0 of x is set and bit 1 is clear.
  static_assert(kernels::kBlockRows == sizeof(std::uint64_t));
  constexpr std::uint64_t kLanes = 0x0101010101010101ULL;
  struct Column {
    std::size_t offset;   ///< Byte offset of the column inside a block.
    std::uint64_t bit;    ///< The query bit in every lane.
  };
  std::vector<Column> definite;
  for (std::size_t c = 0; c < query.size(); ++c) {
    if (query[c] != Trit::kDontCare) {
      definite.push_back({c * kernels::kBlockRows, query[c] == Trit::kOne ? kLanes : 0});
    }
  }
  const std::size_t blocks = kernels::num_blocks(num_rows());
  const std::size_t block_cells = cells_.width * kernels::kBlockRows;
  std::vector<std::uint8_t> mask(blocks * kernels::kBlockRows);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::uint8_t* block = cells_.trit.data() + b * block_cells;
    std::uint64_t miss = 0;
    for (const Column& column : definite) {
      std::uint64_t x = 0;
      std::memcpy(&x, block + column.offset, sizeof x);
      x ^= column.bit;
      miss |= x & ~(x >> 1) & kLanes;
    }
    const std::uint64_t match = miss ^ kLanes;
    std::memcpy(mask.data() + b * kernels::kBlockRows, &match, sizeof match);
  }
  mask.resize(num_rows());
  return mask;
}

std::vector<std::size_t> TcamArray::hamming_distances(
    std::span<const std::uint8_t> query) const {
  if (query.size() != cells_.width) {
    throw std::invalid_argument{"TcamArray::hamming_distances: query length mismatch"};
  }
  std::vector<std::size_t> distances;
  distances.reserve(num_rows());
  for (std::size_t r = 0; r < num_rows(); ++r) {
    const std::uint8_t* row = cells_.trit.data() + cell_at(r, 0, cells_.width);
    std::size_t d = 0;
    for (std::size_t i = 0; i < cells_.width; ++i) {
      const auto trit = static_cast<Trit>(row[i * kernels::kBlockRows]);
      if (trit == Trit::kDontCare) continue;
      const bool stored = trit == Trit::kOne;
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
    const circuit::Matchline ml{config_.matchline, cells_.width};
    const circuit::WinnerTakeAllSense sense{ml, config_.sense_clock_period};
    outcome.sense = sense.sense(outcome.row_conductance);
    outcome.row = outcome.sense.winner;
    if (!valid_[outcome.row]) {
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

std::vector<std::size_t> TcamArray::exact_matches(std::span<const std::uint8_t> query,
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
