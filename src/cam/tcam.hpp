// Ternary CAM array (the paper's baseline substrate, refs [3], [7]).
//
// A TCAM cell is the 1-bit special case of the MCAM cell: it stores "0",
// "1", or "X" (don't care). Searching applies the query bit's input voltage
// to DL; a mismatching cell conducts strongly, a matching cell leaks, and
// an X cell never conducts (both FeFETs erased to the highest Vth). A
// row's matchline conductance is therefore proportional to its Hamming
// distance from the query, which is exactly how the TCAM+LSH baseline of
// ref [3] performs nearest-neighbor search.
//
// Evaluation follows the paper's Sec. IV-A methodology: a cell's state is
// fixed between programming events, so each cell is compiled into a
// conductance table entry (its matchline conductance for query bit 0 and
// for query bit 1) when it is written, and a search is a gather-add over
// those entries. Unperturbed cells share one nominal entry per trit; a cell
// with a nonzero Vth offset gets a private entry. The entries come from the
// analog channel model and each row sums them in column order, so the
// totals are bit-identical to evaluating the model at search time. Cells
// live in the blocked store of cam/kernels/, whose kernels sweep one row
// per SIMD lane.
#pragma once

#include "cam/array.hpp"
#include "cam/kernels/kernels.hpp"
#include "fefet/device.hpp"
#include "fefet/levels.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace mcam::cam {

/// One ternary symbol.
enum class Trit : std::uint8_t { kZero = 0, kOne = 1, kDontCare = 2 };

/// Construction parameters for a TCAM array.
struct TcamArrayConfig {
  fefet::ChannelParams channel{};                ///< FeFET channel model.
  circuit::MatchlineParams matchline{};          ///< ML electrical budget.
  SensingMode sensing = SensingMode::kIdealSum;  ///< Ranking fidelity.
  double sense_clock_period = 0.0;               ///< Sense clock [s]; 0 = ideal.
  double vth_sigma = 0.0;                        ///< Per-FeFET programming noise [V].
  double drift_sigma = 0.0;  ///< Injected retention drift [V] on top of vth_sigma
                             ///< at programming time (see McamArrayConfig); a
                             ///< health-scrub testing knob, not persisted by
                             ///< snapshots.
  std::uint64_t seed = 1;                        ///< Seed for programming noise.
  std::size_t max_rows = 0;  ///< Physical row capacity; 0 = unbounded (legacy).
};

/// A programmed ternary CAM array.
class TcamArray {
 public:
  explicit TcamArray(const TcamArrayConfig& config);

  /// Writes one ternary row; returns its index. Throws std::length_error
  /// when the array is at `config.max_rows` capacity and
  /// std::invalid_argument for a symbol outside {kZero, kOne, kDontCare};
  /// a rejected row draws no programming noise and stores nothing.
  std::size_t add_row(std::span<const Trit> word);

  /// Writes one binary row (no don't-cares).
  std::size_t add_row_bits(std::span<const std::uint8_t> bits);

  /// Removes all rows.
  void clear() noexcept;

  /// Tombstones row `i` without reprogramming (indices stay stable); it
  /// stops competing in nearest / exact_matches. Returns false if already
  /// invalid; throws std::out_of_range for a bad index.
  bool invalidate_row(std::size_t i);

  /// True when row `i` has not been tombstoned.
  [[nodiscard]] bool row_valid(std::size_t i) const;

  /// Number of rows still competing.
  [[nodiscard]] std::size_t num_valid() const noexcept { return valid_rows_; }

  /// Per-row validity mask (1 = live), parallel to the physical rows.
  [[nodiscard]] std::span<const std::uint8_t> valid_mask() const noexcept { return valid_; }

  /// True when `config.max_rows` is set and every physical slot is used.
  [[nodiscard]] bool full() const noexcept {
    return config_.max_rows > 0 && valid_.size() >= config_.max_rows;
  }

  /// Matchline conductance of every row for a binary `query` [S].
  [[nodiscard]] std::vector<double> search_conductances(
      std::span<const std::uint8_t> query) const;

  /// Matchline conductance of every row for a *ternary* query [S]: a
  /// kDontCare query position drives both search lines low, so neither
  /// FeFET of any cell in that column can turn on and the column
  /// contributes exactly zero to every matchline. On a query without
  /// don't-cares this is numerically identical to the binary overload -
  /// the masked columns simply drop out of the Hamming sum. Throws
  /// std::invalid_argument on a length mismatch or a symbol outside
  /// {kZero, kOne, kDontCare}.
  [[nodiscard]] std::vector<double> search_conductances(
      std::span<const Trit> query) const;

  /// Per-row ternary match mask (1 = row compatible with `query`): a row
  /// matches when every position where *both* the query and the stored
  /// cell are definite (not kDontCare) stores the same bit. This is the
  /// in-array predicate gate of the tag-band filter: the mismatch of any
  /// required band bit discharges the matchline far past the match limit,
  /// so the row drops out of the nomination before any ranking happens.
  /// Tombstoned rows still report their stored pattern (combine with
  /// valid_mask(), as rank_by_sensing does). Only the query's definite
  /// columns are read, one 8-row block column at a time, so a one-tag
  /// band query costs one load per block. Throws std::invalid_argument
  /// like the ternary search_conductances.
  [[nodiscard]] std::vector<std::uint8_t> ternary_match_mask(
      std::span<const Trit> query) const;

  /// Ideal Hamming distance of every row from `query` (don't-care cells
  /// match both values). Reference result for the electrical path.
  [[nodiscard]] std::vector<std::size_t> hamming_distances(
      std::span<const std::uint8_t> query) const;

  /// Nearest row by matchline discharge (minimum Hamming distance).
  [[nodiscard]] SearchOutcome nearest(std::span<const std::uint8_t> query) const;

  /// Rows that match exactly (Hamming distance 0 electrically).
  [[nodiscard]] std::vector<std::size_t> exact_matches(std::span<const std::uint8_t> query,
                                                       double g_match_limit_per_cell) const;

  /// Programmed ternary word of row `i` - the snapshot export used by bank
  /// serialization (noise is rebuilt by replaying add_row; see
  /// McamArray::row_levels). Throws std::out_of_range for a bad index.
  [[nodiscard]] std::vector<Trit> row_trits(std::size_t i) const;

  /// Sensed (read back) trit of every cell in row `i`: the cell's effective
  /// FeFET Vth pair (target + noise/drift offsets) quantized to the nearest
  /// of {kZero, kOne, kDontCare} by squared distance, where kDontCare's
  /// nominal pair is (v_max, v_max) - both FeFETs erased high. Zero noise
  /// reproduces row_trits(). Throws std::out_of_range for a bad index.
  [[nodiscard]] std::vector<Trit> row_readback(std::size_t i) const;

  /// Readback-vs-intended comparison of row `i` (the health-scrub hook).
  /// TCAM cells have no fault model, so RowHealth::faulty is always 0.
  /// Throws std::out_of_range for a bad index.
  [[nodiscard]] RowHealth row_health(std::size_t i) const;

  /// Injects retention drift in place (see McamArray::apply_drift): every
  /// cell's two Vth offsets get N(0, sigma) draws from a dedicated Rng
  /// seeded with `seed`; the programming Rng is untouched, and the
  /// conductance table is recompiled. Returns the number of cells
  /// perturbed; sigma <= 0 is a no-op.
  std::size_t apply_drift(double sigma, std::uint64_t seed);

  /// Number of programmed rows.
  [[nodiscard]] std::size_t num_rows() const noexcept { return valid_.size(); }
  /// Cells per row.
  [[nodiscard]] std::size_t word_length() const noexcept { return cells_.width; }
  /// Configuration in use.
  [[nodiscard]] const TcamArrayConfig& config() const noexcept { return config_; }
  /// The 1-bit level map realizing the ternary cell voltages.
  [[nodiscard]] const fefet::LevelMap& level_map() const noexcept { return map_; }

 private:
  /// Analog channel-model conductance of a cell storing `trit` with the
  /// given FeFET Vth offsets, for search input `input` (0 or 1).
  [[nodiscard]] double cell_conductance(Trit trit, float dvth_left, float dvth_right,
                                        std::uint8_t input) const;

  /// Stores cell `at`'s trit and table entry: the shared nominal entry of
  /// `trit` when both offsets are zero, else a new private entry, which
  /// clears the nominal flag of row `row`'s block.
  void compile_cell(std::size_t row, std::size_t at, Trit trit, float dvth_left,
                    float dvth_right);

  /// Per-row conductance for a query (see kernels::CamKernelOps::tcam_sweep).
  [[nodiscard]] std::vector<double> sweep(std::span<const std::uint8_t> query,
                                          bool ternary) const;

  TcamArrayConfig config_;
  fefet::LevelMap map_;
  kernels::TcamCells cells_;
  std::vector<std::uint8_t> valid_;
  std::size_t valid_rows_ = 0;
  Rng rng_;
};

}  // namespace mcam::cam
