// The CAM sweep kernels' identity contract (cam/kernels/):
//
//  - every backend the host has returns the scalar reference's totals bit
//    for bit, on both arrays. The goldens in test_array / test_tcam use 40
//    rows, exactly five full blocks, so these cases add the shapes they
//    cannot see: single rows, partial tail blocks, 4095-row arrays and
//    widths of 1 to 64 cells, across programming noise, stuck faults,
//    tombstones, apply_drift, clear() + re-add and bounded banks;
//  - an injected measured table (McamArrayConfig::lut) is read by the
//    nominal-cell path: each row's total is distance::McamDistance's sum
//    on that table, bit for bit, on every backend;
//  - set_force_scalar / MCAM_FORCE_SCALAR pins the scalar reference.
#include "cam/array.hpp"
#include "cam/kernels/kernels.hpp"
#include "cam/tcam.hpp"
#include "distance/kernels/kernels.hpp"
#include "distance/mcam_distance.hpp"
#include "force_scalar_guard.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

namespace mcam::cam {
namespace {

constexpr std::size_t kRows[] = {1, 7, 8, 9, 127, 129, 4095};
constexpr std::size_t kWidths[] = {1, 7, 32, 48, 64};

using testing_util::ForceScalarGuard;

/// Runs `sweep` on the scalar reference and on the dispatched backend and
/// expects the same raw bits from both.
void expect_backends_agree(const std::function<std::vector<double>()>& sweep) {
  const ForceScalarGuard guard;
  distance::kernels::set_force_scalar(true);
  const std::vector<double> want = sweep();
  distance::kernels::set_force_scalar(false);
  const std::vector<double> got = sweep();
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t r = 0; r < want.size(); ++r) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(want[r]), std::bit_cast<std::uint64_t>(got[r]))
        << "row " << r << ": scalar " << want[r] << ", " << kernels::active_ops().name << " "
        << got[r];
  }
}

/// True when the host has a backend beyond the scalar reference, so there
/// is something to compare.
bool has_simd_backend() { return kernels::avx512_ops() != nullptr; }

std::vector<std::uint16_t> random_levels(Rng& rng, std::size_t width, std::size_t states) {
  std::vector<std::uint16_t> levels(width);
  for (auto& level : levels) level = static_cast<std::uint16_t>(rng.index(states));
  return levels;
}

std::vector<Trit> random_trits(Rng& rng, std::size_t width, double dont_care) {
  std::vector<Trit> word(width);
  for (auto& t : word) {
    t = rng.bernoulli(dont_care) ? Trit::kDontCare : (rng.bernoulli(0.5) ? Trit::kOne : Trit::kZero);
  }
  return word;
}

/// Programs `rows` random rows, tombstones every fifth, and compares both
/// backends on a few queries.
void check_mcam(const McamArrayConfig& config, std::size_t rows, std::size_t width) {
  SCOPED_TRACE(::testing::Message() << "mcam rows=" << rows << " width=" << width << " bits="
                                    << config.level_map.bits() << " vth_sigma="
                                    << config.vth_sigma << " faults=" << config.stuck_short_rate);
  McamArray array{config};
  Rng data{config.seed * 31 + rows * 7 + width};
  const std::size_t states = config.level_map.num_states();
  for (std::size_t r = 0; r < rows; ++r) array.add_row(random_levels(data, width, states));
  for (std::size_t r = 0; r < rows; r += 5) array.invalidate_row(r);
  for (int q = 0; q < 3; ++q) {
    const std::vector<std::uint16_t> query = random_levels(data, width, states);
    expect_backends_agree([&] { return array.search_conductances(query); });
  }
}

void check_tcam(const TcamArrayConfig& config, std::size_t rows, std::size_t width) {
  SCOPED_TRACE(::testing::Message() << "tcam rows=" << rows << " width=" << width
                                    << " vth_sigma=" << config.vth_sigma);
  TcamArray tcam{config};
  Rng data{config.seed * 31 + rows * 7 + width};
  for (std::size_t r = 0; r < rows; ++r) tcam.add_row(random_trits(data, width, 0.15));
  for (std::size_t r = 0; r < rows; r += 5) tcam.invalidate_row(r);
  for (int q = 0; q < 3; ++q) {
    std::vector<std::uint8_t> bits(width);
    for (auto& b : bits) b = data.bernoulli(0.5) ? 1 : 0;
    expect_backends_agree([&] { return tcam.search_conductances(bits); });
    const std::vector<Trit> ternary = random_trits(data, width, 0.3);
    expect_backends_agree(
        [&] { return tcam.search_conductances(std::span<const Trit>{ternary}); });
  }
}

TEST(CamKernels, ForceScalarPinsDispatch) {
  const ForceScalarGuard guard;
  distance::kernels::set_force_scalar(true);
  EXPECT_EQ(&kernels::active_ops(), &kernels::scalar_ops());
  EXPECT_STREQ(kernels::active_ops().name, "scalar");
  distance::kernels::set_force_scalar(false);
  const kernels::CamKernelOps* best = kernels::avx512_ops();
  EXPECT_EQ(&kernels::active_ops(), best != nullptr ? best : &kernels::scalar_ops());
}

TEST(CamKernels, BlockedIndexIsColumnMajorInsideABlock) {
  EXPECT_EQ(kernels::num_blocks(0), 0u);
  EXPECT_EQ(kernels::num_blocks(8), 1u);
  EXPECT_EQ(kernels::num_blocks(9), 2u);
  // Rows 0-7 of a 3-cell row: column c of lane l at c * 8 + l.
  EXPECT_EQ(kernels::cell_at(0, 0, 3), 0u);
  EXPECT_EQ(kernels::cell_at(5, 0, 3), 5u);
  EXPECT_EQ(kernels::cell_at(5, 2, 3), 21u);
  // Row 9 is lane 1 of block 1, which starts at 8 * 3.
  EXPECT_EQ(kernels::cell_at(9, 1, 3), 24u + 8u + 1u);
}

TEST(CamKernels, McamEveryShapeMatchesScalarBits) {
  if (!has_simd_backend()) GTEST_SKIP() << "host has no AVX-512F CAM backend";
  std::uint64_t seed = 100;
  for (const std::size_t rows : kRows) {
    for (const std::size_t width : kWidths) {
      McamArrayConfig config;
      config.seed = ++seed;
      check_mcam(config, rows, width);  // All-nominal blocks.
      config.vth_sigma = 0.05;
      config.stuck_short_rate = 0.02;
      config.stuck_open_rate = 0.02;
      check_mcam(config, rows, width);  // Offset cells blended with faults.
    }
  }
}

TEST(CamKernels, McamEveryBitWidthMatchesScalarBits) {
  // Bits 1-3 read the drive table with one vpermpd, 4 with a two-table
  // permute and 5-6 with a gather. Faults alone leave most blocks nominal
  // and mix stuck lanes into the rest.
  if (!has_simd_backend()) GTEST_SKIP() << "host has no AVX-512F CAM backend";
  std::uint64_t seed = 200;
  for (unsigned bits = 1; bits <= 6; ++bits) {
    for (const double vth_sigma : {0.0, 0.05}) {
      for (const double fault_rate : {0.0, 0.02}) {
        McamArrayConfig config;
        config.level_map = fefet::LevelMap{bits};
        config.vth_sigma = vth_sigma;
        config.stuck_short_rate = fault_rate;
        config.stuck_open_rate = fault_rate;
        config.seed = ++seed;
        check_mcam(config, 129, 7);
        check_mcam(config, 9, 48);
      }
    }
  }
}

TEST(CamKernels, McamDriftClearAndBoundedBanksMatchScalarBits) {
  if (!has_simd_backend()) GTEST_SKIP() << "host has no AVX-512F CAM backend";
  McamArrayConfig config;
  config.vth_sigma = 0.05;
  config.stuck_short_rate = 0.01;
  config.max_rows = 13;  // Bounded bank: a full and a partial block.
  config.seed = 300;
  McamArray array{config};
  Rng data{301};
  std::vector<std::vector<std::uint16_t>> rows;
  while (!array.full()) {
    rows.push_back(random_levels(data, 48, 8));
    array.add_row(rows.back());
  }
  ASSERT_EQ(array.num_rows(), 13u);
  EXPECT_THROW(array.add_row(rows.front()), std::length_error);
  const std::vector<std::uint16_t> query = random_levels(data, 48, 8);
  const auto sweep = [&] { return array.search_conductances(query); };
  expect_backends_agree(sweep);
  array.apply_drift(0.04, 302);
  expect_backends_agree(sweep);
  // A 4 V drift pushes factors past float range (inf and 0): the clamp
  // must match std::min on both backends.
  array.apply_drift(4.0, 303);
  expect_backends_agree(sweep);
  array.clear();
  for (const auto& row : rows) array.add_row(row);
  expect_backends_agree(sweep);
  // A drift-free nominal array turned offset by apply_drift.
  McamArrayConfig nominal_config;
  nominal_config.seed = 304;
  McamArray nominal{nominal_config};
  for (const auto& row : rows) nominal.add_row(row);
  const auto nominal_sweep = [&] { return nominal.search_conductances(query); };
  expect_backends_agree(nominal_sweep);
  nominal.apply_drift(0.04, 305);
  expect_backends_agree(nominal_sweep);
}

TEST(CamKernels, McamInjectedTableMatchesMcamDistanceBits) {
  // Random measured tables at every bit width. Fault-free arrays must sum
  // exactly McamDistance's loop on both paths; with stuck faults mixed in,
  // every backend must still return the scalar reference's bits.
  std::uint64_t seed = 400;
  for (unsigned bits = 1; bits <= 6; ++bits) {
    const std::size_t states = std::size_t{1} << bits;
    for (const std::size_t rows : {1, 7, 8, 9, 33}) {
      McamArrayConfig config;
      config.level_map = fefet::LevelMap{bits};
      config.seed = ++seed;
      Rng data{seed * 31};
      std::vector<double> values(states * states);
      for (double& g : values) g = 1e-9 * std::exp(data.normal(0.0, 2.0));
      config.lut =
          std::make_shared<const ConductanceLut>(ConductanceLut::from_values(states, values));
      const distance::McamDistance reference{*config.lut};
      McamArray array{config};
      std::vector<std::vector<std::uint16_t>> stored;
      for (std::size_t r = 0; r < rows; ++r) {
        stored.push_back(random_levels(data, 13, states));
        array.add_row(stored.back());
      }
      for (std::size_t r = 0; r < rows; r += 5) array.invalidate_row(r);
      const std::vector<std::uint16_t> query = random_levels(data, 13, states);
      const ForceScalarGuard guard;
      for (const bool scalar : {true, false}) {
        distance::kernels::set_force_scalar(scalar);
        const std::vector<double> totals = array.search_conductances(query);
        for (std::size_t r = 0; r < rows; ++r) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(totals[r]),
                    std::bit_cast<std::uint64_t>(reference(query, stored[r])))
              << "bits " << bits << " rows " << rows << " row " << r << " on "
              << kernels::active_ops().name;
        }
      }
      if (!has_simd_backend()) continue;
      config.stuck_short_rate = 0.05;
      config.stuck_open_rate = 0.05;
      check_mcam(config, rows, 13);
    }
  }
}

TEST(CamKernels, TcamEveryShapeMatchesScalarBits) {
  if (!has_simd_backend()) GTEST_SKIP() << "host has no AVX-512F CAM backend";
  std::uint64_t seed = 400;
  for (const std::size_t rows : kRows) {
    for (const std::size_t width : kWidths) {
      TcamArrayConfig config;
      config.seed = ++seed;
      check_tcam(config, rows, width);  // Nominal blocks: trits only.
      config.vth_sigma = 0.05;
      check_tcam(config, rows, width);  // Private entries: gathered.
    }
  }
}

TEST(CamKernels, TcamDriftClearAndBoundedBanksMatchScalarBits) {
  if (!has_simd_backend()) GTEST_SKIP() << "host has no AVX-512F CAM backend";
  TcamArrayConfig config;
  config.max_rows = 37;  // Bounded bank with a partial tail block.
  config.seed = 500;
  TcamArray tcam{config};
  Rng data{501};
  std::vector<std::vector<Trit>> rows;
  while (!tcam.full()) {
    rows.push_back(random_trits(data, 32, 0.15));
    tcam.add_row(rows.back());
  }
  EXPECT_THROW(tcam.add_row(rows.front()), std::length_error);
  std::vector<std::uint8_t> bits(32);
  for (auto& b : bits) b = data.bernoulli(0.5) ? 1 : 0;
  const std::vector<Trit> ternary = random_trits(data, 32, 0.3);
  const auto check = [&] {
    expect_backends_agree([&] { return tcam.search_conductances(bits); });
    expect_backends_agree([&] { return tcam.search_conductances(std::span<const Trit>{ternary}); });
  };
  check();
  tcam.apply_drift(0.04, 502);  // Every block turns private.
  check();
  tcam.clear();
  for (const auto& row : rows) tcam.add_row(row);
  check();
}

TEST(CamKernels, BlockedReadersMatchTheProgrammedRows) {
  // Every reader goes through the blocked index: a row reads back exactly
  // what was written, at every lane of a partial tail block.
  McamArray array{McamArrayConfig{}};
  TcamArray tcam{TcamArrayConfig{}};
  Rng data{600};
  std::vector<std::vector<std::uint16_t>> levels;
  std::vector<std::vector<Trit>> words;
  for (std::size_t r = 0; r < 11; ++r) {
    levels.push_back(random_levels(data, 7, 8));
    array.add_row(levels.back());
    words.push_back(random_trits(data, 7, 0.2));
    tcam.add_row(words.back());
  }
  std::vector<std::uint8_t> query(7, 1);
  const std::vector<std::size_t> distances = tcam.hamming_distances(query);
  const std::vector<std::uint8_t> mask =
      tcam.ternary_match_mask(std::vector<Trit>(7, Trit::kOne));
  for (std::size_t r = 0; r < 11; ++r) {
    EXPECT_EQ(array.row_levels(r), levels[r]) << "row " << r;
    EXPECT_EQ(array.row_readback(r), levels[r]) << "row " << r;
    EXPECT_EQ(tcam.row_trits(r), words[r]) << "row " << r;
    EXPECT_EQ(tcam.row_readback(r), words[r]) << "row " << r;
    std::size_t zeros = 0;
    for (const Trit t : words[r]) zeros += t == Trit::kZero;
    EXPECT_EQ(distances[r], zeros) << "row " << r;
    EXPECT_EQ(mask[r], zeros == 0 ? 1 : 0) << "row " << r;
  }
}

}  // namespace
}  // namespace mcam::cam
