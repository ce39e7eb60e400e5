// CAM sweep kernels: one matchline per SIMD lane.
//
// The paper evaluates a search as one look-up-and-sum over every
// matchline at once (Sec. III-B, IV-A). This layer does the same over the
// cells of `TcamArray` and `McamArray`, which store them in blocks of
// `kBlockRows` rows, column-major inside a block (the rerank `RowStore`
// layout): the cells of one column of a block are `kBlockRows`
// consecutive values, one per row, so one vector load covers a block's
// column and each lane carries one row. A partial tail block keeps its
// unused lanes zero (a nominal cell at level / trit 0); kernels sweep
// whole blocks and the arrays drop the tail lanes' totals.
//
// Bit-identity contract (tests/test_cam_kernels.cpp): every backend makes
// each lane add its own row's cells in column order, starting from +0.0,
// with the scalar reference's IEEE operations - separate multiply and add
// (the AVX-512 unit is compiled with -ffp-contract=off), correctly
// rounded division, and the clamp `std::min(x, cap)`. Totals are
// therefore bit-identical across backends and to a row-at-a-time loop.
//
// Dispatch reuses the rerank kernels' switch: a CPUID probe picks the
// best backend once, and MCAM_FORCE_SCALAR=1 (read at startup) or
// `distance::kernels::set_force_scalar` pins the scalar reference.
#pragma once

#include "distance/kernels/kernels.hpp"

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace mcam::cam::kernels {

/// Rows per block = lanes per kernel step (the rerank kernels' block).
inline constexpr std::size_t kBlockRows = distance::kernels::kBlockRows;

/// Blocks that hold `rows` rows.
[[nodiscard]] constexpr std::size_t num_blocks(std::size_t rows) noexcept {
  return (rows + kBlockRows - 1) / kBlockRows;
}

/// Storage index of cell `col` of row `row` in a blocked plane of rows of
/// `width` cells.
[[nodiscard]] constexpr std::size_t cell_at(std::size_t row, std::size_t col,
                                            std::size_t width) noexcept {
  return (row / kBlockRows * width + col) * kBlockRows + row % kBlockRows;
}

/// One TCAM conductance-table entry: the cell's matchline conductance for
/// query bit 0 and 1 [S], and the Vth offsets it was compiled from.
struct TcamEntry {
  double g[2]{};
  float dvth_left = 0.0f;
  float dvth_right = 0.0f;
};

/// Table entries [0, kTcamNominalEntries) are the shared nominal entries,
/// one per trit value (0, 1, 2 = don't care); later entries are private.
inline constexpr std::size_t kTcamNominalEntries = 3;

/// Blocked TCAM cell store. A nominal cell's entry equals its trit, so an
/// all-nominal block is swept from its 1-byte trits alone.
struct TcamCells {
  std::size_t width = 0;              ///< Cells per row.
  std::vector<std::uint8_t> trit;     ///< Programmed trit per cell.
  std::vector<std::uint32_t> entry;   ///< Table entry per cell.
  std::vector<std::uint8_t> nominal;  ///< Per block: 1 when no cell has a private entry.
  std::vector<TcamEntry> table;       ///< Nominal entries, then private ones.

  /// Appends one zeroed (nominal, trit 0) block.
  void add_block();
  /// Removes every row and private entry; the nominal entries stay.
  void clear() noexcept;
};

/// How an MCAM sweep evaluates a cell.
enum class McamCellKind : std::uint8_t {
  kNominal = 0,  ///< Both Vth offsets zero: the cell's LUT entry.
  kOffset,       ///< Offset FeFETs: E entries times the compiled factors.
  kStuckShort,   ///< Fault: always conducts at the on-state cap.
  kStuckOpen,    ///< Fault: never conducts beyond leakage.
};

/// Blocked MCAM cell store: 18 bytes per cell.
struct McamCells {
  std::size_t width = 0;              ///< Cells per row.
  std::vector<std::uint8_t> level;    ///< Programmed level.
  std::vector<McamCellKind> kind;     ///< How a sweep evaluates the cell.
  std::vector<float> dvth_left;       ///< Vth offsets [V]; readback and health read them.
  std::vector<float> dvth_right;
  std::vector<float> factor_left;     ///< exp(-dvth / v_slope), compiled from dvth.
  std::vector<float> factor_right;
  std::vector<std::uint8_t> nominal;  ///< Per block: 1 when every cell is kNominal.

  /// Appends one zeroed (nominal, level 0) block.
  void add_block();
  /// Reserves whole blocks for `rows` rows.
  void reserve(std::size_t rows);
  /// Removes every row (capacity stays).
  void clear() noexcept;
};

/// Compiled MCAM drive of every (input, stored) state pair, indexed
/// [input * states + stored]: the LUT entry and each FeFET's offset-free
/// exponential branch g0 * exp(V_ov / v_slope).
struct McamDrive {
  std::size_t states = 0;  ///< 2^bits.
  std::vector<double> g_nominal;
  std::vector<double> e_left;
  std::vector<double> e_right;
  double g_leak = 0.0;   ///< Per-FeFET leakage [S].
  double r_on = 0.0;     ///< Series on-resistance [Ohm].
  double g_cap = 0.0;    ///< Exponential branch clamp, g0 * e^60 [S].
  double g_short = 0.0;  ///< Stuck-short cell conductance [S].
  double g_open = 0.0;   ///< Stuck-open cell conductance [S].
};

/// One instruction-set backend. Each sweep writes
/// `num_blocks(rows) * kBlockRows` totals to `out`, one per lane.
struct CamKernelOps {
  const char* name;  ///< Telemetry tag: "scalar" | "avx512".
  /// Per row, the sum in column order of `table[entry].g[input]`. With
  /// `ternary` false, query byte b drives input (b != 0); with `ternary`
  /// true, 2 (don't care) skips the column, 1 drives input 1 and any
  /// other value input 0.
  void (*tcam_sweep)(const TcamCells& cells, std::span<const std::uint8_t> query,
                     bool ternary, double* out);
  /// Per row, the sum in column order of each cell's conductance at input
  /// `query[col]` (every level < drive.states). A kOffset cell reads, per
  /// FeFET, g = min(E * factor, g_cap) and adds
  /// (g_leak + g_r / (1 + g_r * r_on)) + (g_leak + g_l / (1 + g_l * r_on)).
  void (*mcam_sweep)(const McamCells& cells, const McamDrive& drive,
                     std::span<const std::uint16_t> query, double* out);
};

/// The portable reference (always available).
[[nodiscard]] const CamKernelOps& scalar_ops() noexcept;

/// The AVX-512F backend, or nullptr when it is not compiled for this
/// target or the host CPU lacks AVX-512F (so tests can compare it against
/// the reference where it exists).
[[nodiscard]] const CamKernelOps* avx512_ops() noexcept;

/// The dispatched backend: the best the host supports, or the scalar
/// reference while `distance::kernels::force_scalar()` holds.
[[nodiscard]] const CamKernelOps& active_ops() noexcept;

}  // namespace mcam::cam::kernels
