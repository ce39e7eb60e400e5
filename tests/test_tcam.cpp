#include "cam/tcam.hpp"

#include "sig/multiprobe.hpp"

#include "fnv1a.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

namespace mcam::cam {
namespace {

std::vector<std::uint8_t> bits(std::initializer_list<int> values) {
  std::vector<std::uint8_t> out;
  for (int v : values) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

using testing_util::Fnv1a;

/// Random ternary word: each position is kDontCare with `dont_care_rate`,
/// else a fair bit.
std::vector<Trit> random_trits(Rng& rng, std::size_t width, double dont_care_rate) {
  std::vector<Trit> word(width);
  for (Trit& t : word) {
    if (rng.bernoulli(dont_care_rate)) {
      t = Trit::kDontCare;
    } else {
      t = rng.bernoulli(0.5) ? Trit::kOne : Trit::kZero;
    }
  }
  return word;
}

TEST(TcamArray, HammingDistances) {
  TcamArray tcam{TcamArrayConfig{}};
  tcam.add_row_bits(bits({0, 0, 0, 0}));
  tcam.add_row_bits(bits({1, 1, 1, 1}));
  tcam.add_row_bits(bits({1, 0, 1, 0}));
  const auto d = tcam.hamming_distances(bits({0, 0, 0, 0}));
  EXPECT_EQ(d, (std::vector<std::size_t>{0, 4, 2}));
}

TEST(TcamArray, DontCareMatchesBoth) {
  TcamArray tcam{TcamArrayConfig{}};
  const std::vector<Trit> word{Trit::kOne, Trit::kDontCare, Trit::kZero};
  tcam.add_row(word);
  EXPECT_EQ(tcam.hamming_distances(bits({1, 0, 0}))[0], 0u);
  EXPECT_EQ(tcam.hamming_distances(bits({1, 1, 0}))[0], 0u);
  EXPECT_EQ(tcam.hamming_distances(bits({0, 1, 0}))[0], 1u);
}

TEST(TcamArray, ElectricalOrderingMatchesHamming) {
  TcamArray tcam{TcamArrayConfig{}};
  Rng rng{3};
  std::vector<std::vector<std::uint8_t>> rows;
  for (int r = 0; r < 10; ++r) {
    std::vector<std::uint8_t> word(32);
    for (auto& b : word) b = rng.bernoulli(0.5) ? 1 : 0;
    rows.push_back(word);
    tcam.add_row_bits(word);
  }
  for (int q = 0; q < 10; ++q) {
    std::vector<std::uint8_t> query(32);
    for (auto& b : query) b = rng.bernoulli(0.5) ? 1 : 0;
    const auto g = tcam.search_conductances(query);
    const auto d = tcam.hamming_distances(query);
    for (std::size_t i = 0; i < g.size(); ++i) {
      for (std::size_t j = 0; j < g.size(); ++j) {
        if (d[i] < d[j]) {
          EXPECT_LT(g[i], g[j]);
        }
      }
    }
  }
}

TEST(TcamArray, NearestIsMinimumHamming) {
  TcamArray tcam{TcamArrayConfig{}};
  tcam.add_row_bits(bits({1, 1, 0, 0, 1}));
  tcam.add_row_bits(bits({0, 1, 0, 0, 1}));
  tcam.add_row_bits(bits({1, 1, 1, 1, 1}));
  const SearchOutcome outcome = tcam.nearest(bits({0, 1, 0, 0, 0}));
  EXPECT_EQ(outcome.row, 1u);
}

TEST(TcamArray, MatchlineTimingAgreesWithIdeal) {
  TcamArrayConfig ideal_config;
  TcamArrayConfig timing_config;
  timing_config.sensing = SensingMode::kMatchlineTiming;
  TcamArray ideal{ideal_config};
  TcamArray timing{timing_config};
  Rng rng{7};
  for (int r = 0; r < 8; ++r) {
    std::vector<std::uint8_t> word(24);
    for (auto& b : word) b = rng.bernoulli(0.5) ? 1 : 0;
    ideal.add_row_bits(word);
    timing.add_row_bits(word);
  }
  for (int q = 0; q < 15; ++q) {
    std::vector<std::uint8_t> query(24);
    for (auto& b : query) b = rng.bernoulli(0.5) ? 1 : 0;
    EXPECT_EQ(ideal.nearest(query).row, timing.nearest(query).row);
  }
}

TEST(TcamArray, ExactMatchOnlyAtZeroDistance) {
  TcamArray tcam{TcamArrayConfig{}};
  tcam.add_row_bits(bits({1, 0, 1}));
  tcam.add_row_bits(bits({1, 1, 1}));
  const auto matches = tcam.exact_matches(bits({1, 0, 1}), 10e-9);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0], 0u);
}

TEST(TcamArray, AllDontCareRowMatchesEverything) {
  TcamArray tcam{TcamArrayConfig{}};
  const std::vector<Trit> wildcard(6, Trit::kDontCare);
  tcam.add_row(wildcard);
  Rng rng{11};
  for (int q = 0; q < 8; ++q) {
    std::vector<std::uint8_t> query(6);
    for (auto& b : query) b = rng.bernoulli(0.5) ? 1 : 0;
    EXPECT_EQ(tcam.hamming_distances(query)[0], 0u);
    EXPECT_FALSE(tcam.exact_matches(query, 10e-9).empty());
  }
}

TEST(TcamArray, Validation) {
  TcamArray tcam{TcamArrayConfig{}};
  EXPECT_THROW((void)tcam.add_row(std::vector<Trit>{}), std::invalid_argument);
  tcam.add_row_bits(bits({1, 0}));
  EXPECT_THROW((void)tcam.add_row_bits(bits({1, 0, 1})), std::invalid_argument);
  EXPECT_THROW((void)tcam.search_conductances(bits({1})), std::invalid_argument);
  EXPECT_THROW((void)tcam.hamming_distances(bits({1, 0, 1})), std::invalid_argument);

  // Both ternary entry points reject a symbol outside {0, 1, X} up front,
  // rather than reading it as 0 (the sweep) or as a bit no row stores (the
  // gate).
  TcamArray two{TcamArrayConfig{}};
  two.add_row_bits(bits({0, 1}));
  two.add_row_bits(bits({1, 1}));
  const std::vector<Trit> bad{static_cast<Trit>(5), Trit::kDontCare};
  EXPECT_THROW((void)two.search_conductances(std::span<const Trit>{bad}),
               std::invalid_argument);
  EXPECT_THROW((void)two.ternary_match_mask(std::span<const Trit>{bad}),
               std::invalid_argument);
}

TEST(TcamArray, OutOfRangeTritRejectedBeforeProgramming) {
  // A symbol outside {kZero, kOne, kDontCare} is rejected up front: no
  // noise draw, nothing stored, so the array still matches a replay of the
  // accepted rows.
  TcamArrayConfig config;
  config.vth_sigma = 0.05;
  config.seed = 3;
  const std::vector<Trit> first{Trit::kOne, Trit::kZero, Trit::kDontCare, Trit::kOne};
  const std::vector<Trit> second{Trit::kZero, Trit::kZero, Trit::kOne, Trit::kDontCare};
  std::vector<Trit> bad = first;
  bad[2] = static_cast<Trit>(3);
  TcamArray live{config};
  live.add_row(first);
  EXPECT_THROW((void)live.add_row(bad), std::invalid_argument);
  live.add_row(second);
  TcamArray replay{config};
  replay.add_row(first);
  replay.add_row(second);
  ASSERT_EQ(live.num_rows(), 2u);
  EXPECT_EQ(live.row_trits(1), second);
  for (const auto& query : {bits({1, 0, 1, 1}), bits({0, 1, 0, 0})}) {
    EXPECT_EQ(live.search_conductances(query), replay.search_conductances(query));
  }

  // A rejected first row leaves the word length unset.
  TcamArray fresh{config};
  EXPECT_THROW((void)fresh.add_row(bad), std::invalid_argument);
  EXPECT_EQ(fresh.num_rows(), 0u);
  EXPECT_EQ(fresh.word_length(), 0u);
}

TEST(TcamArray, NearestOnEmptyThrows) {
  TcamArray tcam{TcamArrayConfig{}};
  EXPECT_THROW((void)tcam.nearest(bits({1})), std::logic_error);
}

TEST(TcamArray, ClearResets) {
  TcamArray tcam{TcamArrayConfig{}};
  tcam.add_row_bits(bits({1, 1}));
  tcam.clear();
  EXPECT_EQ(tcam.num_rows(), 0u);
  tcam.add_row_bits(bits({1, 1, 1}));
  EXPECT_EQ(tcam.word_length(), 3u);
}

TEST(TcamArray, MultiProbeSweepMatchesFlippedHammingDistances) {
  // Each multi-probe flip mask perturbs the query signature; the TCAM
  // sweep for that probe must rank by the Hamming distance to the flipped
  // query, and the per-row best across probes must equal the analytic
  // min-over-probes distance.
  TcamArray tcam{TcamArrayConfig{}};
  Rng rng{13};
  std::vector<std::vector<std::uint8_t>> rows;
  for (int r = 0; r < 12; ++r) {
    std::vector<std::uint8_t> word(10);
    for (auto& b : word) b = rng.bernoulli(0.5) ? 1 : 0;
    rows.push_back(word);
    tcam.add_row_bits(word);
  }
  std::vector<std::uint8_t> query(10);
  std::vector<float> margins(10);
  for (std::size_t i = 0; i < 10; ++i) {
    query[i] = rng.bernoulli(0.5) ? 1 : 0;
    margins[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  const auto probes = sig::MultiProbe::sequence(margins, 6);
  ASSERT_EQ(probes.size(), 6u);
  std::vector<std::size_t> best_distance(12, SIZE_MAX);
  std::vector<double> best_conductance(12, 1e30);
  for (const auto& flips : probes) {
    std::vector<std::uint8_t> probe_query = query;
    for (std::size_t bit : flips) probe_query[bit] ^= 1u;
    const auto g = tcam.search_conductances(probe_query);
    const auto d = tcam.hamming_distances(probe_query);
    for (std::size_t i = 0; i < 12; ++i) {
      // Per-probe electrical ordering still tracks Hamming distance.
      for (std::size_t j = 0; j < 12; ++j) {
        if (d[i] < d[j]) {
          EXPECT_LT(g[i], g[j]);
        }
      }
      best_distance[i] = std::min(best_distance[i], d[i]);
      best_conductance[i] = std::min(best_conductance[i], g[i]);
    }
  }
  // Best-of-probes conductance orders rows exactly like the analytic
  // min-over-probes Hamming distance.
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = 0; j < 12; ++j) {
      if (best_distance[i] < best_distance[j]) {
        EXPECT_LT(best_conductance[i], best_conductance[j]);
      }
    }
  }
}

TEST(TcamArray, TombstonedRowsNeverNominatedAcrossAnyProbe) {
  // Validity latches gate the ranking, not the sweep: a tombstoned row
  // still has a conductance, but it must never appear in the nomination,
  // no matter which probe would have matched it best.
  TcamArray tcam{TcamArrayConfig{}};
  Rng rng{29};
  for (int r = 0; r < 16; ++r) {
    std::vector<std::uint8_t> word(8);
    for (auto& b : word) b = rng.bernoulli(0.5) ? 1 : 0;
    tcam.add_row_bits(word);
  }
  std::set<std::size_t> dead;
  for (std::size_t id : {std::size_t{0}, std::size_t{5}, std::size_t{6},
                         std::size_t{11}, std::size_t{15}}) {
    ASSERT_TRUE(tcam.invalidate_row(id));
    dead.insert(id);
  }
  EXPECT_EQ(tcam.num_valid(), 11u);

  std::vector<std::uint8_t> query(8);
  std::vector<float> margins(8);
  for (std::size_t i = 0; i < 8; ++i) {
    query[i] = rng.bernoulli(0.5) ? 1 : 0;
    margins[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  // The pipeline's best-of-probes reduction: min conductance per row.
  const auto probes = sig::MultiProbe::sequence(margins, 8);
  std::vector<double> best = tcam.search_conductances(query);
  for (std::size_t p = 1; p < probes.size(); ++p) {
    std::vector<std::uint8_t> probe_query = query;
    for (std::size_t bit : probes[p]) probe_query[bit] ^= 1u;
    const auto g = tcam.search_conductances(probe_query);
    for (std::size_t i = 0; i < best.size(); ++i) best[i] = std::min(best[i], g[i]);
  }
  for (std::size_t k = 1; k <= 11; ++k) {
    const auto ranked = rank_by_sensing(best, tcam.valid_mask(), SensingMode::kIdealSum,
                                        circuit::MatchlineParams{}, tcam.word_length(),
                                        0.0, k);
    EXPECT_EQ(ranked.size(), k);
    for (std::size_t row : ranked) {
      EXPECT_FALSE(dead.count(row)) << "tombstoned row " << row << " nominated at k=" << k;
    }
  }
  // k past the valid count clamps to the survivors - dead rows never
  // backfill the nomination.
  const auto all = rank_by_sensing(best, tcam.valid_mask(), SensingMode::kIdealSum,
                                   circuit::MatchlineParams{}, tcam.word_length(), 0.0,
                                   16);
  EXPECT_EQ(all.size(), 11u);
  for (std::size_t row : all) EXPECT_FALSE(dead.count(row));
}

TEST(TcamArray, TernaryQueryMatchesBinaryWhenAllBitsDefinite) {
  // A ternary query with no don't-cares drives the same search lines the
  // binary overload does, so the conductances must be bit-identical.
  TcamArrayConfig config;
  config.vth_sigma = 0.03;  // Programming noise must not break the identity.
  config.seed = 11;
  TcamArray tcam{config};
  Rng rng{17};
  for (int r = 0; r < 12; ++r) {
    std::vector<std::uint8_t> word(16);
    for (auto& b : word) b = rng.bernoulli(0.5) ? 1 : 0;
    tcam.add_row_bits(word);
  }
  for (int q = 0; q < 6; ++q) {
    std::vector<std::uint8_t> query(16);
    std::vector<Trit> trits(16);
    for (std::size_t i = 0; i < query.size(); ++i) {
      query[i] = rng.bernoulli(0.5) ? 1 : 0;
      trits[i] = query[i] != 0 ? Trit::kOne : Trit::kZero;
    }
    const auto binary = tcam.search_conductances(query);
    const auto ternary = tcam.search_conductances(std::span<const Trit>{trits});
    ASSERT_EQ(binary.size(), ternary.size());
    for (std::size_t r = 0; r < binary.size(); ++r) {
      EXPECT_EQ(binary[r], ternary[r]) << "row " << r;  // Bit-exact, not approx.
    }
  }
}

TEST(TcamArray, TernaryDontCareColumnsContributeZeroConductance) {
  // Query-side kDontCare = both search lines low: the column's cells see
  // no gate drive, so they add zero conductance to every matchline - the
  // physics the tag band's masked ranking sweep relies on.
  TcamArray tcam{TcamArrayConfig{}};
  tcam.add_row_bits(bits({1, 0, 1, 0}));
  tcam.add_row_bits(bits({0, 1, 0, 1}));

  const std::vector<Trit> blind(4, Trit::kDontCare);
  for (double g : tcam.search_conductances(std::span<const Trit>{blind})) {
    EXPECT_DOUBLE_EQ(g, 0.0);
  }

  // Masking a mismatching column removes exactly its contribution: the
  // remaining columns read identically to a binary query over them.
  const std::vector<Trit> partial{Trit::kOne, Trit::kDontCare, Trit::kOne,
                                  Trit::kDontCare};
  const auto masked = tcam.search_conductances(std::span<const Trit>{partial});
  // Matchline conductance is mismatch discharge (smaller = closer): row 0
  // matches both driven columns, row 1 mismatches both.
  EXPECT_LT(masked[0], masked[1]);
}

TEST(TcamArray, TernaryMatchMaskRespectsBothSidesOfDontCare) {
  TcamArray tcam{TcamArrayConfig{}};
  tcam.add_row(std::vector<Trit>{Trit::kOne, Trit::kDontCare, Trit::kZero});
  tcam.add_row(std::vector<Trit>{Trit::kZero, Trit::kOne, Trit::kZero});
  tcam.add_row(std::vector<Trit>{Trit::kOne, Trit::kOne, Trit::kOne});

  // Query don't-cares match anything; stored don't-cares match any query.
  const std::vector<Trit> q1{Trit::kOne, Trit::kDontCare, Trit::kDontCare};
  EXPECT_EQ(tcam.ternary_match_mask(std::span<const Trit>{q1}),
            (std::vector<std::uint8_t>{1, 0, 1}));
  const std::vector<Trit> q2{Trit::kDontCare, Trit::kZero, Trit::kDontCare};
  EXPECT_EQ(tcam.ternary_match_mask(std::span<const Trit>{q2}),
            (std::vector<std::uint8_t>{1, 0, 0}));
  const std::vector<Trit> all_dc(3, Trit::kDontCare);
  EXPECT_EQ(tcam.ternary_match_mask(std::span<const Trit>{all_dc}),
            (std::vector<std::uint8_t>{1, 1, 1}));

  // Band-style use: exact bits in a suffix band, don't-care elsewhere,
  // combined with a sig-only conductance sweep - the mask gates
  // eligibility, the sweep still ranks by signature alone.
  const std::vector<Trit> band_gate{Trit::kDontCare, Trit::kDontCare, Trit::kOne};
  EXPECT_EQ(tcam.ternary_match_mask(std::span<const Trit>{band_gate}),
            (std::vector<std::uint8_t>{0, 0, 1}));

  const std::vector<Trit> wrong_width(4, Trit::kDontCare);
  EXPECT_THROW((void)tcam.ternary_match_mask(std::span<const Trit>{wrong_width}),
               std::invalid_argument);
  EXPECT_THROW((void)tcam.search_conductances(std::span<const Trit>{wrong_width}),
               std::invalid_argument);
}

/// Per-row, per-cell oracle of ternary_match_mask: a row matches unless a
/// column where both the query and the stored trit are definite differs.
std::vector<std::uint8_t> reference_match_mask(const TcamArray& tcam,
                                               std::span<const Trit> query) {
  std::vector<std::uint8_t> mask;
  for (std::size_t r = 0; r < tcam.num_rows(); ++r) {
    const std::vector<Trit> word = tcam.row_trits(r);
    std::uint8_t match = 1;
    for (std::size_t c = 0; c < word.size(); ++c) {
      if (query[c] != Trit::kDontCare && word[c] != Trit::kDontCare && word[c] != query[c]) {
        match = 0;
      }
    }
    mask.push_back(match);
  }
  return mask;
}

/// A query with `definite` random definite columns (capped at the width)
/// and don't-care everywhere else.
std::vector<Trit> query_with_definite(Rng& rng, std::size_t width, std::size_t definite) {
  std::vector<std::size_t> columns(width);
  for (std::size_t c = 0; c < width; ++c) columns[c] = c;
  rng.shuffle(columns);
  std::vector<Trit> query(width, Trit::kDontCare);
  for (std::size_t i = 0; i < std::min(definite, width); ++i) {
    query[columns[i]] = rng.bernoulli(0.5) ? Trit::kOne : Trit::kZero;
  }
  return query;
}

TEST(TcamArray, TernaryMatchMaskMatchesPerCellReference) {
  // The block-wise gate against the per-cell oracle: every row count
  // around the 8-row block (tail lanes included), widths up to a full
  // signature + band word, and queries from all-don't-care to all
  // definite. Tombstones, private Vth entries, drift and a clear() refill
  // must not change what the gate reads.
  Rng rng{19};
  for (const std::size_t rows : {1u, 7u, 8u, 9u, 33u, 1024u}) {
    for (const std::size_t width : {1u, 7u, 32u, 64u}) {
      for (const double sigma : {0.0, 0.05}) {
        TcamArrayConfig config;
        config.vth_sigma = sigma;
        config.seed = 23;
        TcamArray tcam{config};
        std::vector<std::vector<Trit>> words;
        const auto program = [&] {
          words.clear();
          for (std::size_t r = 0; r < rows; ++r) {
            words.push_back(random_trits(rng, width, 0.3));
            tcam.add_row(words.back());
          }
        };
        const auto check = [&](const char* stage) {
          const std::string context = std::string{stage} + " rows=" + std::to_string(rows) +
                                      " width=" + std::to_string(width) +
                                      " sigma=" + std::to_string(sigma);
          for (std::size_t r = 0; r < rows; ++r) {
            ASSERT_EQ(tcam.row_trits(r), words[r]) << context << " row " << r;
          }
          for (const std::size_t definite :
               {std::size_t{0}, std::size_t{1}, std::size_t{3}, width}) {
            for (int q = 0; q < 4; ++q) {
              const std::vector<Trit> query = query_with_definite(rng, width, definite);
              EXPECT_EQ(tcam.ternary_match_mask(query), reference_match_mask(tcam, query))
                  << context << " definite=" << definite;
            }
          }
        };
        program();
        check("programmed");
        for (std::size_t r = 0; r < rows; r += 3) (void)tcam.invalidate_row(r);
        check("tombstoned");
        (void)tcam.apply_drift(0.05, 29);
        check("drifted");
        tcam.clear();
        program();
        check("re-added");
      }
    }
  }
}

TEST(TcamArray, ProgrammingNoiseKeepsSmallDistanceOrdering) {
  TcamArrayConfig config;
  config.vth_sigma = 0.04;  // Well inside the 240 mV half-window of 1-bit cells.
  config.seed = 5;
  TcamArray tcam{config};
  tcam.add_row_bits(bits({0, 0, 0, 0, 0, 0, 0, 0}));
  tcam.add_row_bits(bits({1, 1, 1, 1, 0, 0, 0, 0}));
  const SearchOutcome outcome = tcam.nearest(bits({0, 0, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(outcome.row, 0u);
}

TEST(TcamArray, GoldenConductanceBits) {
  // Pins the raw bits of every conductance-derived output - binary and
  // ternary sweeps, nearest(), and the readback health sums - across
  // programming noise, injected drift, apply_drift and clear() + re-add.
  // Any change to how cells are evaluated or summed (order included) moves
  // the hash. The expected value was recorded with the per-cell analog
  // channel model on x86-64 glibc; it depends on that libm's exp/log bits.
  Fnv1a hash;
  std::uint64_t seed = 40;
  for (const double vth_sigma : {0.0, 0.05}) {
    for (const double drift_sigma : {0.0, 0.03}) {
      for (const std::size_t width : {std::size_t{7}, std::size_t{32}, std::size_t{64}}) {
        TcamArrayConfig config;
        config.vth_sigma = vth_sigma;
        config.drift_sigma = drift_sigma;
        config.seed = ++seed;
        TcamArray tcam{config};
        Rng data{seed * 7919};
        std::vector<std::vector<Trit>> rows;
        for (int r = 0; r < 40; ++r) rows.push_back(random_trits(data, width, 0.15));
        std::vector<std::vector<std::uint8_t>> binary_queries;
        std::vector<std::vector<Trit>> ternary_queries;
        for (int q = 0; q < 6; ++q) {
          std::vector<std::uint8_t> query(width);
          for (auto& b : query) b = data.bernoulli(0.5) ? 1 : 0;
          binary_queries.push_back(query);
          ternary_queries.push_back(random_trits(data, width, 0.25));
        }
        const auto digest = [&] {
          for (const auto& query : binary_queries) {
            for (double g : tcam.search_conductances(query)) hash.f64(g);
            const SearchOutcome outcome = tcam.nearest(query);
            hash.u64(outcome.row);
            hash.f64(outcome.conductance);
          }
          for (const auto& query : ternary_queries) {
            for (double g : tcam.search_conductances(std::span<const Trit>{query})) {
              hash.f64(g);
            }
          }
          for (std::size_t r = 0; r < tcam.num_rows(); ++r) {
            const RowHealth health = tcam.row_health(r);
            hash.u64(health.mismatched);
            hash.f64(health.sum_abs_shift_v);
            hash.f64(health.max_abs_shift_v);
          }
        };
        for (const auto& row : rows) tcam.add_row(row);
        ASSERT_TRUE(tcam.invalidate_row(3));  // nearest() must skip a tombstone.
        digest();
        EXPECT_EQ(tcam.apply_drift(0.04, seed + 1000), rows.size() * width);
        digest();
        tcam.clear();
        for (const auto& row : rows) tcam.add_row(row);
        digest();
      }
    }
  }
  EXPECT_EQ(hash.value(), 0x66348b6a17cc6889ULL) << std::hex << hash.value();
}

}  // namespace
}  // namespace mcam::cam
