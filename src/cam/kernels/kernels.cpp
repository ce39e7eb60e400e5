#include "cam/kernels/kernels.hpp"

#include <algorithm>

namespace mcam::cam::kernels {

/// The AVX-512F unit's backend (kernels_avx512.cpp), or nullptr when that
/// unit is not compiled for AVX-512F. Called only after the CPUID probe.
const CamKernelOps* compiled_avx512_ops() noexcept;

void TcamCells::add_block() {
  trit.resize(trit.size() + kBlockRows * width);
  entry.resize(entry.size() + kBlockRows * width);
  nominal.push_back(1);
}

void TcamCells::clear() noexcept {
  width = 0;
  trit.clear();
  entry.clear();
  nominal.clear();
  table.resize(kTcamNominalEntries);
}

void McamCells::add_block() {
  const std::size_t cells = level.size() + kBlockRows * width;
  level.resize(cells);
  kind.resize(cells);
  dvth_left.resize(cells);
  dvth_right.resize(cells);
  factor_left.resize(cells);
  factor_right.resize(cells);
  nominal.push_back(1);
}

void McamCells::reserve(std::size_t rows) {
  const std::size_t cells = num_blocks(rows) * kBlockRows * width;
  level.reserve(cells);
  kind.reserve(cells);
  dvth_left.reserve(cells);
  dvth_right.reserve(cells);
  factor_left.reserve(cells);
  factor_right.reserve(cells);
  nominal.reserve(num_blocks(rows));
}

void McamCells::clear() noexcept {
  width = 0;
  level.clear();
  kind.clear();
  dvth_left.clear();
  dvth_right.clear();
  factor_left.clear();
  factor_right.clear();
  nominal.clear();
}

namespace {

// The scalar reference. Each block keeps one accumulator per lane, and
// every lane adds its row's cells in column order: exactly the operations
// the SIMD backends vectorize. The lane loops are unrolled so the
// accumulators stay in registers.

/// Sums kLanes lanes of one TCAM block, `index` pointing at the first
/// one's cell in column 0: the block's trits when it is all-nominal (a
/// nominal cell's entry is its trit), else its entries.
template <std::size_t kLanes, typename Index>
void tcam_lanes(const TcamEntry* table, const Index* index, std::size_t w,
                std::span<const std::uint8_t> query, bool ternary, double* out) {
  double acc[kLanes] = {};
  for (std::size_t c = 0; c < w; ++c, index += kBlockRows) {
    const std::uint8_t q = query[c];
    if (ternary && q == 2) continue;
    const unsigned in = ternary ? unsigned{q == 1} : unsigned{q != 0};
#pragma GCC unroll 8
    for (std::size_t lane = 0; lane < kLanes; ++lane) acc[lane] += table[index[lane]].g[in];
  }
  std::copy(acc, acc + kLanes, out);
}

void scalar_tcam_sweep(const TcamCells& cells, std::span<const std::uint8_t> query,
                       bool ternary, double* out) {
  const std::size_t w = cells.width;
  const TcamEntry* table = cells.table.data();
  for (std::size_t b = 0; b < cells.nominal.size(); ++b) {
    const std::size_t base = b * kBlockRows * w;
    double* block_out = out + b * kBlockRows;
    if (cells.nominal[b]) {
      tcam_lanes<kBlockRows>(table, cells.trit.data() + base, w, query, ternary, block_out);
    } else {
      // Private entries stream from the table row by row: four lanes at a
      // time keep that to four streams.
      const std::uint32_t* entry = cells.entry.data() + base;
      tcam_lanes<4>(table, entry, w, query, ternary, block_out);
      tcam_lanes<4>(table, entry + 4, w, query, ternary, block_out + 4);
    }
  }
}

void scalar_mcam_sweep(const McamCells& cells, const McamDrive& drive,
                       std::span<const std::uint16_t> query, double* out) {
  const std::size_t w = cells.width;
  const std::size_t n = drive.states;
  const double g_leak = drive.g_leak;
  const double r_on = drive.r_on;
  const double g_cap = drive.g_cap;
  const double g_short = drive.g_short;
  const double g_open = drive.g_open;
  const double* g_nominal = drive.g_nominal.data();
  const double* e_left = drive.e_left.data();
  const double* e_right = drive.e_right.data();
  const std::uint8_t* levels = cells.level.data();
  const McamCellKind* kinds = cells.kind.data();
  const float* factor_left = cells.factor_left.data();
  const float* factor_right = cells.factor_right.data();
  for (std::size_t b = 0; b < cells.nominal.size(); ++b) {
    const std::size_t base = b * kBlockRows * w;
    double acc[kBlockRows] = {};
    if (cells.nominal[b]) {
      for (std::size_t c = 0; c < w; ++c) {
        const double* g = g_nominal + query[c] * n;
        const std::uint8_t* level = levels + base + c * kBlockRows;
#pragma GCC unroll 8
        for (std::size_t lane = 0; lane < kBlockRows; ++lane) acc[lane] += g[level[lane]];
      }
    } else {
      for (std::size_t c = 0; c < w; ++c) {
        const std::size_t row = query[c] * n;
        const std::size_t at = base + c * kBlockRows;
#pragma GCC unroll 8
        for (std::size_t lane = 0; lane < kBlockRows; ++lane) {
          const std::size_t i = row + levels[at + lane];
          switch (kinds[at + lane]) {
            case McamCellKind::kNominal:
              acc[lane] += g_nominal[i];
              break;
            case McamCellKind::kOffset: {
              // fefet::channel_conductance per FeFET, with the exponential
              // gathered and scaled instead of evaluated.
              const double g_right = std::min(e_right[i] * factor_right[at + lane], g_cap);
              const double g_left = std::min(e_left[i] * factor_left[at + lane], g_cap);
              acc[lane] += (g_leak + g_right / (1.0 + g_right * r_on)) +
                           (g_leak + g_left / (1.0 + g_left * r_on));
              break;
            }
            case McamCellKind::kStuckShort:
              acc[lane] += g_short;
              break;
            case McamCellKind::kStuckOpen:
              acc[lane] += g_open;
              break;
          }
        }
      }
    }
    std::copy(acc, acc + kBlockRows, out + b * kBlockRows);
  }
}

constexpr CamKernelOps kScalarOps{"scalar", scalar_tcam_sweep, scalar_mcam_sweep};

}  // namespace

const CamKernelOps& scalar_ops() noexcept { return kScalarOps; }

const CamKernelOps* avx512_ops() noexcept {
#if (defined(__x86_64__) || defined(_M_X64)) && (defined(__GNUC__) || defined(__clang__))
  static const CamKernelOps* ops =
      __builtin_cpu_supports("avx512f") ? compiled_avx512_ops() : nullptr;
  return ops;
#else
  return nullptr;
#endif
}

const CamKernelOps& active_ops() noexcept {
  static const CamKernelOps* best = avx512_ops() != nullptr ? avx512_ops() : &kScalarOps;
  return distance::kernels::force_scalar() ? kScalarOps : *best;
}

}  // namespace mcam::cam::kernels
