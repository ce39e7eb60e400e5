// AVX-512F backend of the CAM sweep kernels: each zmm lane carries one row
// of a block. This translation unit is the only one compiled with
// -mavx512f, and it also gets -ffp-contract=off: without it GCC fuses
// `1.0 + g * r_on` into one fused multiply-add, whose single rounding
// breaks bit-identity with the scalar reference. The rest of the library
// stays at the baseline ISA, and kernels.cpp calls into this unit only
// after a CPUID probe reports AVX-512F.
#include "cam/kernels/kernels.hpp"

#if defined(__AVX512F__)

// GCC 12's AVX-512 intrinsics seed their results with a self-initialized
// `_mm512_undefined_*()` vector, which -Wuninitialized and
// -Wmaybe-uninitialized misreport (GCC bug 105593, fixed in GCC 13).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace mcam::cam::kernels {

namespace {

// The kernels below read the cell store through raw pointers taken once
// per sweep: an out-of-line copy of a standard-library accessor compiled
// in this unit could be picked by the linker for the baseline units too.

static_assert(sizeof(TcamEntry) == 3 * sizeof(double),
              "the private-entry gather indexes TcamEntry::g in units of doubles");

/// One block column of byte cells, zero-extended to one per 64-bit lane.
__m512i load_lanes(const std::uint8_t* cells) {
  return _mm512_cvtepu8_epi64(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(cells)));
}

/// One block column of floats, widened to doubles.
__m512d load_lanes(const float* cells) { return _mm512_cvtps_pd(_mm256_loadu_ps(cells)); }

/// Decodes query byte `q` (see CamKernelOps::tcam_sweep): the column's
/// input, or -1 for a skipped don't-care column.
int tcam_input(std::uint8_t q, bool ternary) {
  if (ternary) return q == 2 ? -1 : int{q == 1};
  return int{q != 0};
}

/// Sweeps kGroup consecutive all-nominal blocks at once, so their
/// independent add chains overlap: each lane reads its trit's nominal
/// entry with one vpermpd.
template <std::size_t kGroup>
void tcam_nominal_blocks(const std::uint8_t* trit, std::size_t w, const std::uint8_t* query,
                         bool ternary, const __m512d nominal[2], double* out) {
  __m512d acc[kGroup];
  for (std::size_t k = 0; k < kGroup; ++k) acc[k] = _mm512_setzero_pd();
  for (std::size_t c = 0; c < w; ++c, trit += kBlockRows) {
    const int in = tcam_input(query[c], ternary);
    if (in < 0) continue;
#pragma GCC unroll 4
    for (std::size_t k = 0; k < kGroup; ++k) {
      acc[k] = _mm512_add_pd(
          acc[k], _mm512_permutexvar_pd(load_lanes(trit + k * kBlockRows * w), nominal[in]));
    }
  }
  for (std::size_t k = 0; k < kGroup; ++k) _mm512_storeu_pd(out + k * kBlockRows, acc[k]);
}

/// Sweeps one block with private entries: each lane gathers its entry.
void tcam_private_block(const std::uint32_t* entry, std::size_t w, const std::uint8_t* query,
                        bool ternary, const double* g, double* out) {
  __m512d acc = _mm512_setzero_pd();
  for (std::size_t c = 0; c < w; ++c, entry += kBlockRows) {
    const int in = tcam_input(query[c], ternary);
    if (in < 0) continue;
    const __m512i e =
        _mm512_cvtepu32_epi64(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(entry)));
    // Entry e's g[in] is double 3 * e + in of the table.
    const __m512i index =
        _mm512_add_epi64(_mm512_add_epi64(_mm512_slli_epi64(e, 1), e), _mm512_set1_epi64(in));
    acc = _mm512_add_pd(acc, _mm512_i64gather_pd(index, g, 8));
  }
  _mm512_storeu_pd(out, acc);
}

void avx512_tcam_sweep(const TcamCells& cells, std::span<const std::uint8_t> query,
                       bool ternary, double* out) {
  constexpr std::size_t kGroup = 4;
  const std::size_t w = cells.width;
  const std::size_t blocks = cells.nominal.size();
  const std::uint8_t* block_nominal = cells.nominal.data();
  const std::uint8_t* trit = cells.trit.data();
  const std::uint32_t* entry = cells.entry.data();
  const TcamEntry* table = cells.table.data();
  const std::uint8_t* q = query.data();
  // Per query input, the nominal entries indexed by trit.
  const __m512d nominal[2] = {
      _mm512_setr_pd(table[0].g[0], table[1].g[0], table[2].g[0], 0.0, 0.0, 0.0, 0.0, 0.0),
      _mm512_setr_pd(table[0].g[1], table[1].g[1], table[2].g[1], 0.0, 0.0, 0.0, 0.0, 0.0)};
  const auto all_nominal = [&](std::size_t b) {
    for (std::size_t k = b; k < b + kGroup; ++k) {
      if (!block_nominal[k]) return false;
    }
    return true;
  };
  for (std::size_t b = 0; b < blocks;) {
    const std::size_t at = b * kBlockRows * w;
    if (b + kGroup <= blocks && all_nominal(b)) {
      tcam_nominal_blocks<kGroup>(trit + at, w, q, ternary, nominal, out + b * kBlockRows);
      b += kGroup;
    } else if (block_nominal[b]) {
      tcam_nominal_blocks<1>(trit + at, w, q, ternary, nominal, out + b * kBlockRows);
      ++b;
    } else {
      tcam_private_block(entry + at, w, q, ternary, table[0].g, out + b * kBlockRows);
      ++b;
    }
  }
}

// Drive-table lookups: one row of a McamDrive table (the entries of one
// query input) read at eight stored levels.

/// Up to 8 states: one masked load (never past the table) and a vpermpd.
struct Permute8 {
  __mmask8 row_mask;
  __m512d operator()(const double* row, __m512i level) const {
    return _mm512_permutexvar_pd(level, _mm512_maskz_loadu_pd(row_mask, row));
  }
};

/// 16 states: two loads and a two-table vpermt2pd.
struct Permute16 {
  __m512d operator()(const double* row, __m512i level) const {
    return _mm512_permutex2var_pd(_mm512_loadu_pd(row), level, _mm512_loadu_pd(row + 8));
  }
};

/// More states: a gather.
struct Gather {
  __m512d operator()(const double* row, __m512i level) const {
    return _mm512_i64gather_pd(level, row, 8);
  }
};

template <typename Lookup>
void mcam_sweep_with(const McamCells& cells, const McamDrive& drive,
                     std::span<const std::uint16_t> query, double* out, Lookup lookup) {
  const std::size_t w = cells.width;
  const std::size_t n = drive.states;
  const std::size_t blocks = cells.nominal.size();
  const std::uint8_t* block_nominal = cells.nominal.data();
  const std::uint8_t* levels = cells.level.data();
  const auto* kinds = reinterpret_cast<const std::uint8_t*>(cells.kind.data());
  const float* factor_left = cells.factor_left.data();
  const float* factor_right = cells.factor_right.data();
  const double* g_nominal = drive.g_nominal.data();
  const double* e_left = drive.e_left.data();
  const double* e_right = drive.e_right.data();
  const std::uint16_t* q = query.data();
  const __m512d g_leak = _mm512_set1_pd(drive.g_leak);
  const __m512d r_on = _mm512_set1_pd(drive.r_on);
  const __m512d g_cap = _mm512_set1_pd(drive.g_cap);
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d g_short = _mm512_set1_pd(drive.g_short);
  const __m512d g_open = _mm512_set1_pd(drive.g_open);
  const __m512i kind_nominal = _mm512_set1_epi64(static_cast<long long>(McamCellKind::kNominal));
  const __m512i kind_short = _mm512_set1_epi64(static_cast<long long>(McamCellKind::kStuckShort));
  const __m512i kind_open = _mm512_set1_epi64(static_cast<long long>(McamCellKind::kStuckOpen));
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t base = b * kBlockRows * w;
    __m512d acc = _mm512_setzero_pd();
    if (block_nominal[b]) {
      for (std::size_t c = 0; c < w; ++c) {
        const __m512i level = load_lanes(levels + base + c * kBlockRows);
        acc = _mm512_add_pd(acc, lookup(g_nominal + q[c] * n, level));
      }
    } else {
      for (std::size_t c = 0; c < w; ++c) {
        const std::size_t at = base + c * kBlockRows;
        const std::size_t row = q[c] * n;
        const __m512i level = load_lanes(levels + at);
        // One division per FeFET side for all eight cells, as kOffset
        // cells; the other kinds are blended in by lane below.
        const __m512d g_right = _mm512_min_pd(
            g_cap, _mm512_mul_pd(lookup(e_right + row, level), load_lanes(factor_right + at)));
        const __m512d g_left = _mm512_min_pd(
            g_cap, _mm512_mul_pd(lookup(e_left + row, level), load_lanes(factor_left + at)));
        __m512d g = _mm512_add_pd(
            _mm512_add_pd(g_leak, _mm512_div_pd(g_right, _mm512_add_pd(
                                                             one, _mm512_mul_pd(g_right, r_on)))),
            _mm512_add_pd(g_leak, _mm512_div_pd(g_left, _mm512_add_pd(
                                                            one, _mm512_mul_pd(g_left, r_on)))));
        const __m512i kind = load_lanes(kinds + at);
        g = _mm512_mask_mov_pd(g, _mm512_cmpeq_epi64_mask(kind, kind_nominal),
                               lookup(g_nominal + row, level));
        g = _mm512_mask_mov_pd(g, _mm512_cmpeq_epi64_mask(kind, kind_short), g_short);
        g = _mm512_mask_mov_pd(g, _mm512_cmpeq_epi64_mask(kind, kind_open), g_open);
        acc = _mm512_add_pd(acc, g);
      }
    }
    _mm512_storeu_pd(out + b * kBlockRows, acc);
  }
}

void avx512_mcam_sweep(const McamCells& cells, const McamDrive& drive,
                       std::span<const std::uint16_t> query, double* out) {
  if (drive.states <= 8) {
    mcam_sweep_with(cells, drive, query, out,
                    Permute8{static_cast<__mmask8>((1u << drive.states) - 1)});
  } else if (drive.states == 16) {
    mcam_sweep_with(cells, drive, query, out, Permute16{});
  } else {
    mcam_sweep_with(cells, drive, query, out, Gather{});
  }
}

constexpr CamKernelOps kAvx512Ops{"avx512", avx512_tcam_sweep, avx512_mcam_sweep};

}  // namespace

const CamKernelOps* compiled_avx512_ops() noexcept { return &kAvx512Ops; }

}  // namespace mcam::cam::kernels

#else  // target does not compile AVX-512F: the probe finds no backend.

namespace mcam::cam::kernels {

const CamKernelOps* compiled_avx512_ops() noexcept { return nullptr; }

}  // namespace mcam::cam::kernels

#endif
