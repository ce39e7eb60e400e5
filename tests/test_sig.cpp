// Signature-model subsystem invariants (sig/model.hpp,
// sig/multiprobe.hpp): the registry resolves random/trained/itq and
// rejects unknown names with the known list; the random model is
// bit-identical to encoding::RandomHyperplaneLsh (the v2-snapshot compat
// contract); trained thresholds balance every bit on the calibration
// data; itq training is deterministic, rotation-orthogonal, and a better
// quantizer than raw sign bits; install_state round-trips every model
// bit-exactly; and the multi-probe generator enumerates flip sets in
// increasing margin order with the base signature first.
#include "sig/model.hpp"
#include "sig/multiprobe.hpp"

#include "encoding/lsh.hpp"
#include "fnv1a.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace mcam::sig {
namespace {

std::vector<std::vector<float>> make_rows(std::size_t n, std::size_t dim,
                                          std::uint64_t seed) {
  Rng rng{seed};
  std::vector<std::vector<float>> rows(n, std::vector<float>(dim));
  for (auto& row : rows) {
    const double shift = rng.normal(0.0, 2.0);
    for (auto& v : row) v = static_cast<float>(shift + rng.normal(0.0, 1.0));
  }
  return rows;
}

TEST(SignatureRegistry, ResolvesBuiltinsAndRejectsUnknownNames) {
  auto& factory = SignatureModelFactory::instance();
  const std::vector<std::string> names = factory.registered_names();
  EXPECT_EQ(names, (std::vector<std::string>{"itq", "random", "trained"}));
  SignatureModelConfig config;
  config.num_bits = 8;
  for (const std::string& name : names) {
    EXPECT_TRUE(factory.contains(name));
    auto model = factory.create(name, config);
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->key(), name);
    EXPECT_EQ(model->num_bits(), 8u);
    EXPECT_FALSE(model->fitted());
  }
  EXPECT_FALSE(factory.contains("banana"));
  try {
    (void)factory.create("banana", config);
    FAIL() << "unknown model accepted";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("banana"), std::string::npos) << what;
    for (const std::string& name : names) {
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
  }
  // Zero-width signatures are a configuration error for every model.
  EXPECT_THROW((void)factory.create("random", SignatureModelConfig{}),
               std::invalid_argument);
}

TEST(SignatureModel, LifecycleContracts) {
  SignatureModelConfig config;
  config.num_bits = 16;
  auto model = SignatureModelFactory::instance().create("trained", config);
  const std::vector<float> query(6, 0.5f);
  EXPECT_THROW((void)model->encode(query), std::logic_error);
  EXPECT_THROW((void)model->project(query), std::logic_error);
  const auto rows = make_rows(40, 6, 11);
  EXPECT_THROW(model->fit({}), std::invalid_argument);
  model->fit(rows);
  ASSERT_TRUE(model->fitted());
  EXPECT_EQ(model->num_features(), 6u);
  EXPECT_EQ(model->planes().size(), 16u * 6u);
  EXPECT_EQ(model->thresholds().size(), 16u);
  // Width mismatches fail loudly.
  EXPECT_THROW((void)model->encode(std::vector<float>(5, 0.0f)), std::invalid_argument);
  // Signature bits are exactly the margins' sign pattern.
  const encoding::Signature sig = model->encode(rows.front());
  const std::vector<float> margins = model->project(rows.front());
  ASSERT_EQ(margins.size(), 16u);
  for (std::size_t b = 0; b < margins.size(); ++b) {
    EXPECT_EQ(sig.bit(b), margins[b] >= 0.0f) << "bit " << b;
  }
  // fit is fit-once; reset drops the state for a refit.
  const std::vector<float> planes = model->planes();
  model->fit(make_rows(40, 6, 99));
  EXPECT_EQ(model->planes(), planes);
  model->reset();
  EXPECT_FALSE(model->fitted());
  model->fit(make_rows(40, 6, 99));
  EXPECT_NE(model->planes(), planes);
}

TEST(SignatureModel, RandomIsBitIdenticalToRandomHyperplaneLsh) {
  // The v2-snapshot compatibility contract: at the same seed, the random
  // model and the legacy LSH encoder produce identical planes and
  // identical signatures for every input.
  SignatureModelConfig config;
  config.num_bits = 24;
  config.seed = 20210831;
  auto model = SignatureModelFactory::instance().create("random", config);
  const auto rows = make_rows(30, 7, 13);
  model->fit(rows);
  const encoding::RandomHyperplaneLsh lsh{7, 24, config.seed};
  EXPECT_EQ(model->planes(), lsh.hyperplanes());
  EXPECT_EQ(model->thresholds(), std::vector<float>(24, 0.0f));
  for (const auto& row : rows) {
    const encoding::Signature ours = model->encode(row);
    const encoding::Signature theirs = lsh.encode(row);
    EXPECT_EQ(ours.words, theirs.words);
  }
}

TEST(SignatureModel, TrainedThresholdsBalanceEveryBit) {
  // Variance-balanced quantile thresholds: every signature bit should
  // split the calibration rows into reasonably balanced halves (random
  // hyperplanes guarantee nothing of the sort on shifted data).
  SignatureModelConfig config;
  config.num_bits = 12;
  auto model = SignatureModelFactory::instance().create("trained", config);
  const auto rows = make_rows(200, 5, 17);
  model->fit(rows);
  for (std::size_t b = 0; b < 12; ++b) {
    std::size_t ones = 0;
    for (const auto& row : rows) ones += model->encode(row).bit(b) ? 1 : 0;
    // Loose bounds: a direction with q bits puts its extreme thresholds
    // at quantiles 1/(q+1) and q/(q+1), so no bit may be more lopsided
    // than the widest plausible allocation allows.
    EXPECT_GE(ones, 18u) << "bit " << b << " nearly constant";
    EXPECT_LE(ones, 182u) << "bit " << b << " nearly constant";
  }
}

TEST(SignatureModel, ItqIsDeterministicOrthogonalAndWiderThanFeatures) {
  SignatureModelConfig config;
  config.num_bits = 10;  // Wider than the 6-dim feature space.
  config.seed = 5;
  const auto rows = make_rows(150, 6, 19);
  auto first = SignatureModelFactory::instance().create("itq", config);
  auto second = SignatureModelFactory::instance().create("itq", config);
  first->fit(rows);
  second->fit(rows);
  // Bit-deterministic across fits with the same seed and rows.
  EXPECT_EQ(first->planes(), second->planes());
  EXPECT_EQ(first->thresholds(), second->thresholds());
  EXPECT_EQ(first->num_features(), 6u);
  EXPECT_EQ(first->planes().size(), 10u * 6u);
  // A different seed learns a different rotation.
  SignatureModelConfig other = config;
  other.seed = 6;
  auto reseeded = SignatureModelFactory::instance().create("itq", other);
  reseeded->fit(rows);
  EXPECT_NE(reseeded->planes(), first->planes());
  // The signature is not degenerate: bits differ across rows.
  std::set<std::vector<std::uint64_t>> distinct;
  for (const auto& row : rows) distinct.insert(first->encode(row).words);
  EXPECT_GT(distinct.size(), 16u);
}

TEST(SignatureModel, GoldenFitBits) {
  // FNV-1a over the fitted planes and thresholds of the two trained
  // models: the ML substrate under the fits (Tensor access, loop order)
  // must not move a signature bit.
  SignatureModelConfig config;
  config.num_bits = 24;  // Wider than the features: itq cycles its PCA.
  config.seed = 7;
  const auto rows = make_rows(300, 12, 41);
  const std::vector<std::pair<const char*, std::uint64_t>> goldens{
      {"itq", 0x1edbbc315a52deaaULL}, {"trained", 0x7c20b481d5f87dabULL}};
  for (const auto& [key, golden] : goldens) {
    auto model = SignatureModelFactory::instance().create(key, config);
    model->fit(rows);
    testing_util::Fnv1a hash;
    hash.bytes(model->planes().data(), model->planes().size() * sizeof(float));
    hash.bytes(model->thresholds().data(), model->thresholds().size() * sizeof(float));
    EXPECT_EQ(hash.value(), golden) << key << " 0x" << std::hex << hash.value();
  }
}

TEST(SignatureModel, InstallStateRoundTripsBitExactly) {
  SignatureModelConfig config;
  config.num_bits = 9;
  const auto rows = make_rows(60, 4, 23);
  for (const char* key : {"random", "trained", "itq"}) {
    auto fitted = SignatureModelFactory::instance().create(key, config);
    fitted->fit(rows);
    auto restored = SignatureModelFactory::instance().create(key, config);
    restored->install_state(fitted->num_features(), fitted->planes(),
                            fitted->thresholds());
    for (const auto& row : rows) {
      EXPECT_EQ(restored->encode(row).words, fitted->encode(row).words) << key;
      EXPECT_EQ(restored->project(row), fitted->project(row)) << key;
    }
  }
  auto model = SignatureModelFactory::instance().create("random", config);
  EXPECT_THROW(model->install_state(0, {}, {}), std::invalid_argument);
  EXPECT_THROW(model->install_state(4, std::vector<float>(9 * 4, 0.0f),
                                    std::vector<float>(8, 0.0f)),
               std::invalid_argument);
  EXPECT_THROW(model->install_state(4, std::vector<float>(9 * 3, 0.0f),
                                    std::vector<float>(9, 0.0f)),
               std::invalid_argument);
}

TEST(MultiProbe, BaseFirstThenIncreasingMarginCost) {
  const std::vector<float> margins{0.9f, -0.1f, 0.4f, -0.02f, 1.5f};
  const auto probes = MultiProbe::sequence(margins, 8);
  ASSERT_EQ(probes.size(), 8u);
  EXPECT_TRUE(probes[0].empty());  // Probe 0 is the unperturbed signature.
  // Flip sets are distinct and their summed |margin| costs nondecreasing.
  std::set<std::vector<std::size_t>> seen;
  double last_cost = 0.0;
  for (std::size_t p = 1; p < probes.size(); ++p) {
    EXPECT_TRUE(seen.insert(probes[p]).second) << "duplicate probe " << p;
    double cost = 0.0;
    for (std::size_t bit : probes[p]) {
      ASSERT_LT(bit, margins.size());
      cost += std::abs(margins[bit]);
    }
    EXPECT_GE(cost, last_cost) << "probe " << p << " out of order";
    last_cost = cost;
  }
  // The cheapest probes flip exactly the lowest-margin bits.
  EXPECT_EQ(probes[1], (std::vector<std::size_t>{3}));   // |margin| 0.02
  EXPECT_EQ(probes[2], (std::vector<std::size_t>{1}));   // |margin| 0.1
  EXPECT_EQ(probes[3], (std::vector<std::size_t>{1, 3}));  // 0.12
}

TEST(MultiProbe, BudgetAndDegenerateInputs) {
  // max_probes 0/1 both give just the base signature.
  EXPECT_EQ(MultiProbe::sequence(std::vector<float>{0.5f}, 0).size(), 1u);
  EXPECT_EQ(MultiProbe::sequence(std::vector<float>{0.5f}, 1).size(), 1u);
  // No margins: nothing to flip, whatever the budget.
  EXPECT_EQ(MultiProbe::sequence({}, 16).size(), 1u);
  // A 2-bit signature has only 3 flip sets: the sequence saturates.
  const auto probes = MultiProbe::sequence(std::vector<float>{0.3f, -0.7f}, 100);
  ASSERT_EQ(probes.size(), 4u);
  EXPECT_EQ(probes[1], (std::vector<std::size_t>{0}));
  EXPECT_EQ(probes[2], (std::vector<std::size_t>{1}));
  EXPECT_EQ(probes[3], (std::vector<std::size_t>{0, 1}));
  // Ties break deterministically (lower bit index first).
  const auto tied = MultiProbe::sequence(std::vector<float>{0.5f, -0.5f, 0.5f}, 4);
  EXPECT_EQ(tied[1], (std::vector<std::size_t>{0}));
  EXPECT_EQ(tied[2], (std::vector<std::size_t>{1}));
  EXPECT_EQ(tied[3], (std::vector<std::size_t>{2}));
}

}  // namespace
}  // namespace mcam::sig
