// MCAM array: rows of multi-bit cells searched in a single in-memory step.
//
// Each row stores one quantized data vector (one cell per feature). A
// search drives every data line with the query's input voltages; each
// row's matchline conductance is the sum of its cells' conductances, which
// realizes the paper's distance function at the row level (Sec. III-B).
// The nearest neighbor is the row whose matchline discharges slowest,
// detected by the winner-take-all sense amplifier.
//
// Two fidelity modes:
//  - kIdealSum: rows are ranked by exact total conductance (the Python-LUT
//    methodology of Sec. IV-A),
//  - kMatchlineTiming: rows are ranked through the RC discharge + clocked
//    sense-amp model, which adds realistic sensing granularity.
#pragma once

#include "cam/cell.hpp"
#include "cam/kernels/kernels.hpp"
#include "cam/lut.hpp"
#include "circuit/senseamp.hpp"
#include "util/rng.hpp"

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace mcam::cam {

/// How the array turns row conductances into a winner.
enum class SensingMode : std::uint8_t {
  kIdealSum,         ///< Exact argmin over summed conductances.
  kMatchlineTiming,  ///< RC discharge + (optionally clocked) WTA sense amp.
};

/// Construction parameters for an MCAM array.
struct McamArrayConfig {
  fefet::LevelMap level_map{3};                     ///< Bit precision / voltage plan.
  fefet::ChannelParams channel{};                   ///< FeFET channel model.
  circuit::MatchlineParams matchline{};             ///< ML electrical budget.
  SensingMode sensing = SensingMode::kIdealSum;     ///< Ranking fidelity.
  double sense_clock_period = 0.0;                  ///< Sense clock [s]; 0 = ideal.
  double vth_sigma = 0.0;                           ///< Per-FeFET programming noise [V].
  double drift_sigma = 0.0;  ///< Injected retention drift [V]: an extra per-FeFET
                             ///< Vth perturbation applied on top of vth_sigma when
                             ///< a row is programmed, modeling cells that have
                             ///< already relaxed away from their write target.
                             ///< An operational/testing knob for the health
                             ///< scrubber (obs/health), deliberately not persisted
                             ///< by snapshots: restore replays the row writes,
                             ///< i.e. reprograms the cells, which cures drift.
  double stuck_short_rate = 0.0;  ///< Fraction of cells stuck conducting (ML leaker).
  double stuck_open_rate = 0.0;   ///< Fraction of cells stuck open (never conduct).
  std::uint64_t seed = 1;                           ///< Seed for noise/fault sampling.
  std::size_t max_rows = 0;  ///< Physical row capacity; 0 = unbounded (legacy).
                             ///< Real matchlines cap out at ~64-128 cells before
                             ///< the sense margin collapses (PAPER.md Sec. III),
                             ///< so production banks are built bounded and the
                             ///< shard layer tiles them.
  std::shared_ptr<const ConductanceLut> lut;  ///< Measured cell table
                                              ///< G[input][stored] (Fig. 9),
                                              ///< shared by copies of the config;
                                              ///< null = the nominal table of
                                              ///< level_map and channel. See
                                              ///< McamArray's constructor.
};

/// Readback-vs-intended comparison of one CAM row - the per-row unit of
/// the health scrubber (obs/health). Produced by McamArray::row_health /
/// TcamArray::row_health.
struct RowHealth {
  std::size_t cells = 0;       ///< Cells compared (the row's word length).
  std::size_t mismatched = 0;  ///< Non-faulty cells whose read-back state
                               ///< differs from the programmed target (drift
                               ///< pushed an effective Vth across a window
                               ///< boundary).
  std::size_t faulty = 0;      ///< Stuck-short / stuck-open cells. A stuck cell
                               ///< is a manufacturing fault, not drift: it is
                               ///< excluded from the mismatch comparison and
                               ///< reported separately.
  double sum_abs_shift_v = 0.0;  ///< Sum over non-faulty cells of the larger
                                 ///< |Vth offset| of the cell's two FeFETs [V].
  double max_abs_shift_v = 0.0;  ///< Largest such offset in the row [V].
};

/// Result of a nearest-neighbor search in the array.
struct SearchOutcome {
  std::size_t row = 0;                 ///< Winning row index.
  double conductance = 0.0;            ///< Winner's total conductance [S].
  std::vector<double> row_conductance; ///< Total conductance per row [S].
  circuit::SenseResult sense;          ///< Populated in kMatchlineTiming mode.
};

/// Nearest-first row ranking for a set of matchline conductances,
/// honoring the sensing mode: kIdealSum ranks by ascending conductance,
/// kMatchlineTiming by descending (clock-quantized) discharge crossing
/// time - the order a repeated winner-take-all sense would latch
/// matchlines. Ties resolve to the lower row index, matching the WTA
/// amplifier and argmin, so the top-1 always equals the `nearest()`
/// winner of the array the conductances came from. Keys compare as
/// order_key images (util/linalg.hpp): -0.0 == +0.0, NaN after +inf. k is
/// clamped to the row count. Lives here, next to SensingMode and the
/// arrays' own `nearest()` dispatch, so a new sensing mode is implemented
/// in one module.
[[nodiscard]] std::vector<std::size_t> rank_by_sensing(
    std::span<const double> row_conductances, SensingMode sensing,
    const circuit::MatchlineParams& matchline, std::size_t word_length,
    double sense_clock_period, std::size_t k);

/// Masked variant: only rows whose `row_valid` entry is non-zero compete.
/// An empty mask means every row is valid. Tombstoned rows are modeled as
/// disconnected from the WTA amplifier (their validity latch gates the
/// sense input), so the relative order of the surviving rows is exactly
/// their order in the unmasked ranking, and no tombstone is returned even
/// when live rows read +inf or NaN. k is clamped to the valid count.
[[nodiscard]] std::vector<std::size_t> rank_by_sensing(
    std::span<const double> row_conductances, std::span<const std::uint8_t> row_valid,
    SensingMode sensing, const circuit::MatchlineParams& matchline,
    std::size_t word_length, double sense_clock_period, std::size_t k);

/// A programmed MCAM array.
///
/// Programming-time Vth noise (config.vth_sigma) is sampled once per cell
/// FeFET when the row is written - subsequent searches see the same
/// hardware instance, as in a real chip.
///
/// Cells are compiled when they are programmed (add_row, apply_drift). The
/// channel exponential of an offset FeFET splits as
///   exp((V_g - V_th(s) - dV) / v_slope) = E[input][s] * exp(-dV / v_slope),
/// so each cell stores its two factors exp(-dV / v_slope) as floats, and a
/// search gathers E from a per-array table and multiplies: no exp per
/// query. A cell with both offsets zero reads its exact LUT entry, and a
/// stuck cell its fault constant, so a noise-free array sums exactly the
/// LUT; an offset cell is within 1e-7 relative of the per-cell analog
/// model (the float factors' rounding). Cells live in the blocked store of
/// cam/kernels/, whose kernels sweep one row per SIMD lane.
class McamArray {
 public:
  /// Throws std::invalid_argument when `config.lut` is set and its state
  /// count differs from the level map's, or vth_sigma or drift_sigma > 0
  /// (apply_drift refuses such an array too).
  explicit McamArray(const McamArrayConfig& config);

  /// Writes one row; `levels` must have one state per cell and every state
  /// must be < 2^bits (else std::out_of_range, before any noise is drawn
  /// or anything is stored). Returns the row index. Throws
  /// std::length_error when the array is at `config.max_rows` capacity.
  ///
  /// Draw order on the array's Rng (seeded with config.seed; clear() does
  /// not reseed it), per cell in column order: when vth_sigma > 0, the
  /// left then the right FeFET's N(0, vth_sigma) offset; when
  /// drift_sigma > 0, an N(0, drift_sigma) draw added to the left then the
  /// right offset (each draw rounded to float before it is added); when
  /// stuck_short_rate > 0, a bernoulli(stuck_short_rate) stuck-short
  /// draw, and only when that is false and stuck_open_rate > 0, a
  /// bernoulli(stuck_open_rate) stuck-open draw.
  std::size_t add_row(std::span<const std::uint16_t> levels);

  /// Writes many rows (each inner vector is one data point).
  void program(std::span<const std::vector<std::uint16_t>> rows);

  /// Removes all rows (array-level erase).
  void clear() noexcept;

  /// Tombstones row `i`: the row keeps its physical slot (indices of other
  /// rows are stable and no reprogramming happens) but stops competing in
  /// nearest / k_nearest / exact_matches. Returns false if the row was
  /// already invalid; throws std::out_of_range for a bad index.
  bool invalidate_row(std::size_t i);

  /// True when row `i` has not been tombstoned.
  [[nodiscard]] bool row_valid(std::size_t i) const;

  /// Number of rows still competing (programmed minus tombstoned).
  [[nodiscard]] std::size_t num_valid() const noexcept { return valid_rows_; }

  /// Per-row validity mask (1 = live), parallel to the physical rows.
  [[nodiscard]] std::span<const std::uint8_t> valid_mask() const noexcept { return valid_; }

  /// True when `config.max_rows` is set and every physical slot is used.
  [[nodiscard]] bool full() const noexcept {
    return config_.max_rows > 0 && num_rows() >= config_.max_rows;
  }

  /// Total conductance of every row for `query` [S]: each row's compiled
  /// cells summed in column order. Throws std::invalid_argument on a
  /// length mismatch and std::out_of_range on a level >= 2^bits.
  [[nodiscard]] std::vector<double> search_conductances(
      std::span<const std::uint16_t> query) const;

  /// Single-step nearest-neighbor search (smallest distance = smallest
  /// total conductance = slowest matchline).
  [[nodiscard]] SearchOutcome nearest(std::span<const std::uint16_t> query) const;

  /// Top-k search: row indices in increasing-distance order under the
  /// configured sensing mode (the order in which a repeated winner-take-all
  /// sense would latch matchlines from slowest to fastest), so the first
  /// index is the `nearest()` winner. Tombstoned rows never appear; k is
  /// clamped to the valid row count.
  [[nodiscard]] std::vector<std::size_t> k_nearest(std::span<const std::uint16_t> query,
                                                   std::size_t k) const;

  /// Number of faulty cells injected so far (stuck-short + stuck-open);
  /// useful for reporting in the fault-tolerance studies.
  [[nodiscard]] std::size_t num_faulty_cells() const noexcept { return faulty_cells_; }

  /// Programmed level of every cell in row `i` - the snapshot export used
  /// by bank serialization. Per-cell programming noise and faults are not
  /// exported: re-adding the same level rows in the same order to a fresh
  /// array with the same config/seed replays the sampling and rebuilds
  /// them bit-identically. Throws std::out_of_range for a bad index.
  [[nodiscard]] std::vector<std::uint16_t> row_levels(std::size_t i) const;

  /// Sensed (read back) state of every cell in row `i`: each cell's
  /// effective FeFET Vth pair (programmed target + sampled noise/drift
  /// offsets) is quantized to the nearest level of the map by squared
  /// distance over the (right, left) Vth targets. With zero noise this
  /// equals row_levels(); faulty cells read back like any other (their
  /// fault is reported separately by row_health). Throws std::out_of_range
  /// for a bad index.
  [[nodiscard]] std::vector<std::uint16_t> row_readback(std::size_t i) const;

  /// Readback-vs-intended comparison of row `i` (the health-scrub hook;
  /// see RowHealth). Throws std::out_of_range for a bad index.
  [[nodiscard]] RowHealth row_health(std::size_t i) const;

  /// Injects retention drift in place: perturbs both FeFET Vth offsets of
  /// every programmed cell (row-major, left then right) by N(0, sigma)
  /// draws from a dedicated Rng seeded with `seed`, and recompiles the
  /// cells. The array's own programming Rng is untouched, so later add_row
  /// noise/fault sampling replays exactly as if no drift was injected.
  /// Returns the number of cells perturbed; sigma <= 0 is a no-op. Throws
  /// std::logic_error on an array built with `config.lut`.
  std::size_t apply_drift(double sigma, std::uint64_t seed);

  /// Exact-match search: indices of rows whose every cell matches `query`
  /// (total conductance below rows*g_match_limit). Classic CAM behavior.
  [[nodiscard]] std::vector<std::size_t> exact_matches(std::span<const std::uint16_t> query,
                                                       double g_match_limit_per_cell) const;

  /// Number of programmed rows.
  [[nodiscard]] std::size_t num_rows() const noexcept { return valid_.size(); }
  /// Cells per row (0 until the first row is written).
  [[nodiscard]] std::size_t word_length() const noexcept { return cells_.width; }
  /// Configuration the array was built with.
  [[nodiscard]] const McamArrayConfig& config() const noexcept { return config_; }
  /// The table a nominal cell reads: `config.lut` when it is set, else
  /// the nominal table of the level map and channel.
  [[nodiscard]] const ConductanceLut& lut() const noexcept { return lut_; }

 private:
  using CellKind = kernels::McamCellKind;

  /// Sets cell `at`'s kind and factors from its offsets, unless it is
  /// stuck; a cell that is not kNominal clears the nominal flag of row
  /// `row`'s block.
  void compile_cell(std::size_t row, std::size_t at);

  McamArrayConfig config_;
  ConductanceLut lut_;
  kernels::McamDrive drive_;
  kernels::McamCells cells_;  ///< Bounded banks reserve max_rows, rounded up to a block.
  std::vector<std::uint8_t> valid_;
  std::size_t valid_rows_ = 0;
  std::size_t faulty_cells_ = 0;
  Rng rng_;
};

}  // namespace mcam::cam
