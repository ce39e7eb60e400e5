#include "util/linalg.hpp"
#include "util/table.hpp"

#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

namespace mcam {
namespace {

TEST(Linalg, DotAndNorm) {
  const std::vector<float> a{1.0f, 2.0f, 3.0f};
  const std::vector<float> b{4.0f, -5.0f, 6.0f};
  EXPECT_FLOAT_EQ(dot(a, b), 12.0f);
  EXPECT_FLOAT_EQ(norm2(a), std::sqrt(14.0f));
}

TEST(Linalg, SquaredDistance) {
  const std::vector<float> a{1.0f, 2.0f};
  const std::vector<float> b{4.0f, 6.0f};
  EXPECT_FLOAT_EQ(squared_distance(a, b), 25.0f);
}

TEST(Linalg, L2NormalizeUnitLength) {
  std::vector<float> a{3.0f, 4.0f};
  l2_normalize(a);
  EXPECT_NEAR(norm2(a), 1.0f, 1e-6f);
  EXPECT_NEAR(a[0], 0.6f, 1e-6f);
}

TEST(Linalg, L2NormalizeZeroVectorUntouched) {
  std::vector<float> zero{0.0f, 0.0f};
  l2_normalize(zero);
  EXPECT_FLOAT_EQ(zero[0], 0.0f);
  EXPECT_FLOAT_EQ(zero[1], 0.0f);
}

TEST(Linalg, Axpy) {
  const std::vector<float> x{1.0f, 2.0f};
  std::vector<float> y{10.0f, 20.0f};
  axpy(2.0f, x, y);
  EXPECT_FLOAT_EQ(y[0], 12.0f);
  EXPECT_FLOAT_EQ(y[1], 24.0f);
}

TEST(Linalg, ArgminArgmax) {
  const std::vector<double> xs{3.0, 1.0, 2.0, 1.0};
  EXPECT_EQ(argmin(xs), 1u);  // First minimum wins.
  EXPECT_EQ(argmax(xs), 0u);
  const std::vector<float> fs{0.1f, 0.9f, 0.5f};
  EXPECT_EQ(argmax_f(fs), 1u);
}

TEST(Linalg, ArgminEmptyIsZero) {
  EXPECT_EQ(argmin({}), 0u);
}

/// The ranking contract, spelled without order_key: ascending by value,
/// -0.0 == +0.0, every NaN after +inf, ties to the lower index.
std::vector<std::size_t> full_sort_reference(const std::vector<double>& xs) {
  std::vector<std::size_t> sorted(xs.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) sorted[i] = i;
  std::sort(sorted.begin(), sorted.end(), [&xs](std::size_t a, std::size_t b) {
    const bool nan_a = std::isnan(xs[a]);
    const bool nan_b = std::isnan(xs[b]);
    if (nan_a != nan_b) return nan_b;
    if (!nan_a && xs[a] != xs[b]) return xs[a] < xs[b];
    return a < b;
  });
  return sorted;
}

/// A TCAM-style matchline total: 32 cells, each one of two conductances,
/// summed in column order. Rows at one Hamming distance differ only in
/// their last bits (the order of the additions), so keys differ over ~55
/// bit positions.
double conductance_shaped(Rng& rng) {
  double sum = 0.0;
  for (int cell = 0; cell < 32; ++cell) sum += rng.bernoulli(0.5) ? 1.7e-8 : 7.3e-8;
  return sum;
}

TEST(Linalg, ArgsortTopKIsFullSortPrefix) {
  // Every k on either side of each choice the selection makes - group
  // minima or a sampled cut (k^2 vs n), an exact or a sampled cut (n vs
  // the 256-key sample), a sampled cut that rises or takes every key, and
  // a counting or a radix sort (the gathered keys' distinct count vs 128)
  // - must return exactly the first k entries of a full sort by (value,
  // index).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMax = std::numeric_limits<double>::max();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  using Draw = std::function<double(Rng&, std::size_t)>;
  const std::vector<std::pair<const char*, Draw>> key_sets{
      {"hamming-tied+inf",
       [](Rng& rng, std::size_t) {
         return rng.bernoulli(0.1) ? kInf : 1e-6 * static_cast<double>(rng.index(8));
       }},
      {"conductance", [](Rng& rng, std::size_t) { return conductance_shaped(rng); }},
      {"negated-times",
       [](Rng& rng, std::size_t) { return -1e-9 * static_cast<double>(1 + rng.index(64)) * 1.01; }},
      {"signed-zero-inf-nan",
       [nan](Rng& rng, std::size_t) {
         const std::vector<double> specials{0.0, -0.0, kInf, -kInf, nan, -nan, 1.0, -1.0};
         return rng.bernoulli(0.5) ? specials[rng.index(specials.size())] : rng.normal(0.0, 1.0);
       }},
      {"all-equal", [](Rng&, std::size_t) { return 2.5e-7; }},
      {"ascending", [](Rng&, std::size_t i) { return 1e-3 * static_cast<double>(i); }},
      {"descending", [](Rng&, std::size_t i) { return -1e-3 * static_cast<double>(i); }},
      // Missed by a sample that reads the last key of each stratum, so a
      // sampled cut for a large k starts too low and must rise.
      {"every-8th-largest",
       [](Rng& rng, std::size_t i) { return i % 8 == 0 ? kMax : rng.normal(0.0, 1.0); }},
      {"one-value-90pct",
       [](Rng& rng, std::size_t) { return rng.bernoulli(0.9) ? 0.5 : rng.normal(0.0, 1.0); }},
      {"distinct-normal", [](Rng& rng, std::size_t) { return rng.normal(0.0, 1.0); }},
      {"128-values", [](Rng& rng, std::size_t) { return static_cast<double>(rng.index(128)); }},
      {"129-values", [](Rng& rng, std::size_t) { return static_cast<double>(rng.index(129)); }},
      {"1000-values", [](Rng& rng, std::size_t) { return static_cast<double>(rng.index(1000)); }},
  };
  Rng rng{21};
  for (const auto& [name, draw] : key_sets) {
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{127},
          std::size_t{128}, std::size_t{255}, std::size_t{256}, std::size_t{257},
          std::size_t{1000}, std::size_t{4096}, std::size_t{16384}}) {
      std::vector<double> xs(n);
      for (std::size_t i = 0; i < n; ++i) xs[i] = draw(rng, i);
      const std::vector<std::size_t> sorted = full_sort_reference(xs);
      const auto root = static_cast<std::size_t>(std::sqrt(static_cast<double>(n)));
      std::vector<std::size_t> ks{0, 1, 2, 10, 23, 24, 641, n + 5, root, root + 1};
      for (const std::size_t share : {16, 2}) ks.insert(ks.end(), {n / share - 1, n / share});
      for (const std::size_t percent : {75, 85, 90, 92, 95, 98}) ks.push_back(n * percent / 100);
      if (n > 0) ks.insert(ks.end(), {n - 1, n});
      for (const std::size_t k : ks) {
        const std::size_t kk = std::min(k, n);
        const std::vector<std::size_t> expected(
            sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(kk));
        EXPECT_EQ(argsort_top_k(xs, k), expected) << name << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(Linalg, ConductanceKeysDifferOverMostBits) {
  // Guards the "conductance" key set above: its order_key images differ
  // over about 55 bit positions, so the radix sort runs every digit.
  Rng rng{21};
  std::uint64_t any = 0;
  std::uint64_t all = ~std::uint64_t{0};
  for (int i = 0; i < 4096; ++i) {
    const std::uint64_t key = order_key(conductance_shaped(rng));
    any |= key;
    all &= key;
  }
  const std::uint64_t diff = any ^ all;
  EXPECT_GE(64 - std::countl_zero(diff) - std::countr_zero(diff), 50);
}

TEST(TextTable, RendersAlignedGrid) {
  TextTable table{"demo"};
  table.set_header({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"bb", "22"});
  const std::string text = table.to_string();
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(text.find("| bb    | 22    |"), std::string::npos);
}

TEST(TextTable, RowWidthMismatchThrows) {
  TextTable table;
  table.set_header({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(TextTable, NumericRowFormatsPrecision) {
  TextTable table;
  table.set_header({"label", "x", "y"});
  table.add_numeric_row("row", {1.23456, 2.0}, 2);
  const std::string text = table.to_string();
  EXPECT_NE(text.find("1.23"), std::string::npos);
  EXPECT_NE(text.find("2.00"), std::string::npos);
}

TEST(TextTable, CsvRoundTrip) {
  TextTable table;
  table.set_header({"a", "b"});
  table.add_row({"x,with,commas", "plain"});
  const std::string path = std::filesystem::temp_directory_path() / "mcam_table_test.csv";
  table.write_csv(path);
  std::ifstream in{path};
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "\"x,with,commas\",plain");
  std::filesystem::remove(path);
}

TEST(TextTable, CsvInvalidPathThrows) {
  TextTable table;
  table.add_row({"x"});
  EXPECT_THROW((void)table.write_csv("/nonexistent-dir-xyz/out.csv"), std::runtime_error);
}

TEST(Format, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-1.0, 0), "-1");
}

TEST(Format, FormatSiPicksPrefix) {
  EXPECT_EQ(format_si(3.2e-9, "s"), "3.20 ns");
  EXPECT_EQ(format_si(4.5e-15, "J"), "4.50 fJ");
  EXPECT_EQ(format_si(2.0e6, "Hz"), "2.00 MHz");
  EXPECT_EQ(format_si(0.0, "V", 1), "0.0 V");
  EXPECT_EQ(format_si(-1.5e-3, "A"), "-1.50 mA");
}

}  // namespace
}  // namespace mcam
