// Two-stage pipeline invariants (search/refine.hpp): with the exhaustive
// fallback on - or with candidate_factor large enough that the coarse
// stage nominates every live row - TwoStageNnIndex is bit-identical to
// its fine backend alone, for every factory backend; query_subset
// overrides match the default filtered-full-ranking implementation;
// erase routes into both stages; the refine:* spec syntax (fine= consumes
// the rest of the spec) parses and round-trips through snapshots and the
// QueryService; telemetry reports coarse/fine candidate counts and the
// combined energy. Plus the one-k-convention property (k = 0 == k = 1)
// across every registered backend.
#include "search/refine.hpp"

#include "cam/lut.hpp"
#include "energy/model.hpp"
#include "search/engine.hpp"
#include "search/factory.hpp"
#include "search/sharded.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace mcam::search {
namespace {

struct Data {
  std::vector<std::vector<float>> rows;
  std::vector<int> labels;
  std::vector<std::vector<float>> queries;
};

Data make_data(std::size_t n, std::size_t dim, std::size_t num_queries,
               std::uint64_t seed) {
  Data data;
  Rng rng{seed};
  const auto sample = [&](int cls) {
    std::vector<float> v(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      v[i] = static_cast<float>(rng.normal(cls * 1.5 + (i % 3) * 0.3, 0.8));
    }
    return v;
  };
  for (std::size_t r = 0; r < n; ++r) {
    const int cls = static_cast<int>(r % 4);
    data.rows.push_back(sample(cls));
    data.labels.push_back(cls);
  }
  for (std::size_t q = 0; q < num_queries; ++q) {
    data.queries.push_back(sample(static_cast<int>(q % 4)));
  }
  return data;
}

void expect_identical(const QueryResult& two_stage, const QueryResult& fine_alone,
                      const std::string& context) {
  EXPECT_EQ(two_stage.label, fine_alone.label) << context;
  ASSERT_EQ(two_stage.neighbors.size(), fine_alone.neighbors.size()) << context;
  for (std::size_t i = 0; i < fine_alone.neighbors.size(); ++i) {
    EXPECT_EQ(two_stage.neighbors[i].index, fine_alone.neighbors[i].index)
        << context << " rank " << i;
    EXPECT_EQ(two_stage.neighbors[i].label, fine_alone.neighbors[i].label)
        << context << " rank " << i;
    EXPECT_EQ(two_stage.neighbors[i].distance, fine_alone.neighbors[i].distance)
        << context << " rank " << i;  // Exact: same conductances / metrics.
  }
}

/// Every backend key the registry offers monolithically.
const std::vector<std::string>& backend_keys() {
  static const std::vector<std::string> keys{
      "mcam3", "mcam2", "mcam", "tcam-lsh", "cosine", "euclidean", "manhattan", "linf"};
  return keys;
}

TEST(TwoStageIdentity, ExhaustiveFallbackIsBitIdenticalPerFactoryBackend) {
  // Acceptance: with the fallback on, the pipeline answers with the fine
  // backend alone - result AND telemetry verbatim - for every backend.
  const Data data = make_data(80, 8, 5, 211);
  for (const std::string& key : backend_keys()) {
    EngineConfig config;
    config.num_features = 8;
    auto fine_alone = make_index(key, config);
    EngineConfig refine_config = config;
    refine_config.fine_spec = key;
    refine_config.coarse_bits = 16;
    refine_config.candidate_factor = 2;
    refine_config.refine_exhaustive = true;
    auto two_stage = make_index("refine", refine_config);

    fine_alone->add(data.rows, data.labels);
    two_stage->add(data.rows, data.labels);
    EXPECT_EQ(two_stage->size(), fine_alone->size()) << key;

    for (const auto& q : data.queries) {
      for (std::size_t k : {std::size_t{1}, std::size_t{7}, std::size_t{80}}) {
        const QueryResult ours = two_stage->query_one(q, k);
        const QueryResult theirs = fine_alone->query_one(q, k);
        expect_identical(ours, theirs, key + " fallback k=" + std::to_string(k));
        EXPECT_EQ(ours.telemetry.candidates, theirs.telemetry.candidates) << key;
        EXPECT_EQ(ours.telemetry.energy_j, theirs.telemetry.energy_j) << key;
        EXPECT_EQ(ours.telemetry.coarse_candidates, 0u) << key;
      }
    }
  }
}

TEST(TwoStageIdentity, FullCandidateSetIsBitIdenticalPerFactoryBackend) {
  // Acceptance: with candidate_factor high enough the coarse stage
  // nominates every live row, and the rerank (query_subset) must
  // reproduce the fine backend's native ranking exactly - including for a
  // sharded fine stage and after erases.
  const Data data = make_data(60, 8, 4, 223);
  for (const std::string& key : backend_keys()) {
    for (const bool sharded_fine : {false, true}) {
      const std::string fine_key = sharded_fine ? "sharded-" + key : key;
      EngineConfig config;
      config.num_features = 8;
      config.bank_rows = sharded_fine ? 16 : 0;
      auto fine_alone = make_index(fine_key, config);
      EngineConfig refine_config = config;
      refine_config.fine_spec = fine_key;
      refine_config.coarse_bits = 24;
      refine_config.candidate_factor = 1000;  // Nominates every live row.
      auto two_stage = make_index("refine", refine_config);

      fine_alone->add(data.rows, data.labels);
      two_stage->add(data.rows, data.labels);
      for (std::size_t id : {std::size_t{3}, std::size_t{17}, std::size_t{42}}) {
        EXPECT_EQ(fine_alone->erase(id), two_stage->erase(id)) << fine_key;
      }

      for (const auto& q : data.queries) {
        for (std::size_t k : {std::size_t{1}, std::size_t{5}, std::size_t{57}}) {
          expect_identical(two_stage->query_one(q, k), fine_alone->query_one(q, k),
                           fine_key + " full-candidates k=" + std::to_string(k));
        }
      }
    }
  }
}

TEST(TwoStageQuery, SubsetOverrideMatchesDefaultImplementation) {
  // SoftwareNnEngine overrides query_subset with a candidates-only scan;
  // it must be bit-identical (result and telemetry) to the generic
  // filtered-full-ranking default, which McamNnEngine exercises here via
  // an equivalent-ranking metric check on the same candidate set.
  const Data data = make_data(50, 6, 4, 229);
  SoftwareNnEngine engine{"euclidean"};
  engine.add(data.rows, data.labels);
  ASSERT_TRUE(engine.erase(7));
  const std::vector<std::size_t> ids{1, 7, 3, 3, 11, 29, 44, 49, 999};  // dup/dead/bogus
  for (const auto& q : data.queries) {
    const QueryResult fast = engine.query_subset(q, ids, 4);
    const QueryResult slow = engine.NnIndex::query_subset(q, ids, 4);
    expect_identical(fast, slow, "software subset override");
    EXPECT_EQ(fast.telemetry.candidates, slow.telemetry.candidates);
    EXPECT_EQ(fast.telemetry.candidates, 6u);  // 7 erased, 3 duped, 999 unknown.
    EXPECT_EQ(fast.telemetry.sense_events, slow.telemetry.sense_events);
  }
  // Degenerate candidate sets fail loudly instead of returning nothing.
  EXPECT_THROW((void)engine.query_subset(data.queries[0], {}, 3), std::invalid_argument);
  const std::vector<std::size_t> dead{7};
  EXPECT_THROW((void)engine.query_subset(data.queries[0], dead, 3), std::invalid_argument);
}

TEST(TwoStageQuery, SubsetEnergyChargesOnlyTheCandidateFraction) {
  const Data data = make_data(40, 6, 1, 233);
  EngineConfig config;
  config.num_features = 6;
  auto mcam = make_index("mcam3", config);
  mcam->add(data.rows, data.labels);
  const QueryResult full = mcam->query_one(data.queries[0], 4);
  const std::vector<std::size_t> ids{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  const QueryResult subset = mcam->query_subset(data.queries[0], ids, 4);
  EXPECT_EQ(subset.telemetry.candidates, 10u);
  EXPECT_GT(subset.telemetry.energy_j, 0.0);
  // The MCAM search energy model is linear in rows: 10/40 of the full pay.
  EXPECT_NEAR(subset.telemetry.energy_j, full.telemetry.energy_j * 10.0 / 40.0,
              1e-12 * full.telemetry.energy_j);
}

TEST(TwoStageMutation, EraseRoutesIntoBothStagesAndTombstonesNominations) {
  // An erased row must be gone from the coarse nominations too: with
  // candidate_factor = 1 and k = 1, serving a stale coarse hit would
  // surface immediately as a dead id in the answer.
  const Data data = make_data(30, 6, 6, 239);
  EngineConfig config;
  config.num_features = 6;
  config.fine_spec = "mcam3";
  config.coarse_bits = 32;
  config.candidate_factor = 1;
  auto index = make_index("refine", config);
  index->add(data.rows, data.labels);

  const auto& two_stage = dynamic_cast<const TwoStageNnIndex&>(*index);
  EXPECT_EQ(two_stage.coarse_tcam().num_valid(), 30u);
  EXPECT_EQ(two_stage.fine().size(), 30u);

  std::set<std::size_t> erased;
  Rng rng{17};
  for (int e = 0; e < 12; ++e) {
    const std::size_t id = rng.index(30);
    EXPECT_EQ(index->erase(id), erased.insert(id).second);
  }
  EXPECT_EQ(index->size(), 30 - erased.size());
  EXPECT_EQ(two_stage.coarse_tcam().num_valid(), index->size());
  for (const auto& q : data.queries) {
    const QueryResult result = index->query_one(q, 3);
    for (const Neighbor& n : result.neighbors) {
      EXPECT_FALSE(erased.count(n.index)) << "tombstoned id " << n.index << " served";
    }
  }
  EXPECT_THROW((void)index->erase(30), std::out_of_range);
  // clear() empties both stages (the coarse TCAM and the fitted signature
  // model are dropped entirely); the next add recalibrates both.
  index->clear();
  EXPECT_EQ(index->size(), 0u);
  EXPECT_FALSE(two_stage.signature_model().fitted());
  EXPECT_THROW((void)two_stage.coarse_tcam(), std::logic_error);
  index->add(data.rows, data.labels);
  EXPECT_EQ(index->size(), 30u);
  EXPECT_EQ(two_stage.coarse_tcam().num_valid(), 30u);
}

TEST(TwoStageTelemetry, ReportsPerStageCandidatesAndCombinedEnergy) {
  // Geometry where the prefilter pays off in the energy model: a narrow
  // (8-bit) binary TCAM sweep plus 20 reranked multi-bit matchlines vs
  // charging all 120 of the 32-cell MCAM's matchlines.
  const Data data = make_data(120, 32, 3, 241);
  EngineConfig config;
  config.num_features = 32;
  config.fine_spec = "mcam3";
  config.coarse_bits = 8;
  config.candidate_factor = 4;
  auto index = make_index("refine", config);
  index->add(data.rows, data.labels);

  EngineConfig fine_config;
  fine_config.num_features = 32;
  auto fine_alone = make_index("mcam3", fine_config);
  fine_alone->add(data.rows, data.labels);

  const double coarse_energy =
      energy::ArrayEnergyModel{energy::ArrayParams{}}.tcam_search_energy(120, 8);
  for (const auto& q : data.queries) {
    const QueryTelemetry t = index->query_one(q, 5).telemetry;
    EXPECT_EQ(t.coarse_candidates, 120u);  // The TCAM still scans every row...
    EXPECT_EQ(t.fine_candidates, 20u);     // ...but the MCAM reranks only 4*5.
    EXPECT_EQ(t.candidates, 140u);
    EXPECT_EQ(t.banks_searched, 2u);
    EXPECT_EQ(t.probes_used, 1u);       // Single-probe default.
    EXPECT_GE(t.coarse_margin, 0.0);    // Gap at the nomination cut.

    // Combined energy = full TCAM sweep + candidate-gated MCAM search.
    const QueryTelemetry exhaustive = fine_alone->query_one(q, 5).telemetry;
    const double expected = coarse_energy + exhaustive.energy_j * 20.0 / 120.0;
    EXPECT_NEAR(t.energy_j, expected, 1e-9 * expected);
    // And it is the measurable win of the whole exercise.
    EXPECT_LT(t.energy_j, 0.7 * exhaustive.energy_j);
  }
}

TEST(TwoStageSpec, FineKeyConsumesTheRestOfTheSpec) {
  const EngineSpec spec = parse_engine_spec(
      "refine:coarse_bits=64,candidate_factor=8,sig=trained,probes=4,"
      "fine=sharded-mcam:bits=2,bank_rows=16");
  EXPECT_EQ(spec.name, "refine");
  EXPECT_EQ(spec.config.coarse_bits, 64u);
  EXPECT_EQ(spec.config.candidate_factor, 8u);
  EXPECT_EQ(spec.config.sig_model, "trained");
  EXPECT_EQ(spec.config.probes, 4u);
  // Everything after fine= belongs to the nested spec, commas included.
  EXPECT_EQ(spec.config.fine_spec, "sharded-mcam:bits=2,bank_rows=16");

  const EngineSpec exhaustive = parse_engine_spec("refine:exhaustive=1,fine=euclidean");
  EXPECT_TRUE(exhaustive.config.refine_exhaustive);
  EXPECT_EQ(exhaustive.config.fine_spec, "euclidean");

  EXPECT_THROW((void)parse_engine_spec("refine:fine="), std::invalid_argument);
  EXPECT_THROW((void)parse_engine_spec("refine:candidate_factor=banana,fine=mcam3"),
               std::invalid_argument);
  // A refine engine without a fine stage is a configuration error.
  EngineConfig config;
  config.num_features = 4;
  EXPECT_THROW((void)make_index("refine", config), std::invalid_argument);
  EXPECT_THROW((void)make_index("refine:coarse_bits=16", config), std::invalid_argument);
}

TEST(TwoStageSpec, SigAndProbesKeyErrorPaths) {
  EngineConfig config;
  config.num_features = 4;

  // Nested fine= specs keep their own sig=/probes= keys: the outer spec
  // stops parsing at fine=, so the nested pipeline gets its own model.
  const EngineSpec nested = parse_engine_spec(
      "refine:sig=itq,probes=2,fine=refine:sig=trained,probes=8,fine=euclidean");
  EXPECT_EQ(nested.config.sig_model, "itq");
  EXPECT_EQ(nested.config.probes, 2u);
  EXPECT_EQ(nested.config.fine_spec, "refine:sig=trained,probes=8,fine=euclidean");
  const EngineSpec inner = parse_engine_spec(nested.config.fine_spec);
  EXPECT_EQ(inner.config.sig_model, "trained");
  EXPECT_EQ(inner.config.probes, 8u);
  EXPECT_EQ(inner.config.fine_spec, "euclidean");
  // And the whole nested pipeline builds end to end.
  const Data data = make_data(30, 4, 2, 271);
  auto nested_index = make_index(
      "refine:coarse_bits=16,sig=itq,probes=2,"
      "fine=refine:coarse_bits=16,sig=trained,probes=8,candidate_factor=1000,"
      "fine=euclidean",
      config);
  nested_index->add(data.rows, data.labels);
  EXPECT_EQ(nested_index->query_one(data.queries[0], 3).neighbors.size(), 3u);

  // Unknown sig-model names throw with the known-model list.
  try {
    (void)make_index("refine:coarse_bits=16,sig=banana,fine=euclidean", config);
    FAIL() << "unknown sig model accepted";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("banana"), std::string::npos) << what;
    EXPECT_NE(what.find("itq"), std::string::npos) << what;
    EXPECT_NE(what.find("random"), std::string::npos) << what;
    EXPECT_NE(what.find("trained"), std::string::npos) << what;
  }

  // Unknown keys still list the spec vocabulary, now including sig/probes.
  try {
    (void)parse_engine_spec("refine:sigg=itq,fine=euclidean");
    FAIL() << "unknown key accepted";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("sig"), std::string::npos) << what;
    EXPECT_NE(what.find("probes"), std::string::npos) << what;
  }

  // Duplicate-key rejection covers the new keys.
  EXPECT_THROW((void)parse_engine_spec("refine:sig=itq,sig=trained,fine=euclidean"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_engine_spec("refine:probes=2,probes=4,fine=euclidean"),
               std::invalid_argument);
  // Malformed and empty values for the new keys fail loudly.
  EXPECT_THROW((void)parse_engine_spec("refine:probes=two,fine=euclidean"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_engine_spec("refine:sig=,fine=euclidean"),
               std::invalid_argument);
}

TEST(TwoStageMultiProbe, RecoversRecallAndNeverServesTombstones) {
  // Multi-probe sweeps flip the query's lowest-margin signature bits; the
  // candidate set can only grow toward the true neighbors, and erased rows
  // must be invisible to every probe.
  const Data data = make_data(200, 8, 10, 281);
  EngineConfig config;
  config.num_features = 8;
  const auto truth = make_index("euclidean", config);
  truth->add(data.rows, data.labels);

  double single_recall = 0.0;
  double multi_recall = 0.0;
  for (const std::size_t probes : {std::size_t{1}, std::size_t{8}}) {
    auto index = make_index("refine:coarse_bits=12,candidate_factor=2,probes=" +
                                std::to_string(probes) + ",fine=euclidean",
                            config);
    index->add(data.rows, data.labels);
    double recall = 0.0;
    for (const auto& q : data.queries) {
      const QueryResult result = index->query_one(q, 5);
      EXPECT_EQ(result.telemetry.probes_used, probes);
      EXPECT_EQ(result.telemetry.coarse_candidates, 200u * probes);
      std::set<std::size_t> expected;
      for (const Neighbor& n : truth->query_one(q, 5).neighbors) expected.insert(n.index);
      for (const Neighbor& n : result.neighbors) recall += expected.count(n.index);
    }
    (probes == 1 ? single_recall : multi_recall) = recall;
  }
  // 8 probes over 12-bit signatures at factor 2 must not lose recall (on
  // this seed they strictly gain).
  EXPECT_GE(multi_recall, single_recall);

  // Tombstoned rows never surface through any probe.
  auto index = make_index("refine:coarse_bits=12,candidate_factor=1,probes=8,fine=euclidean",
                          config);
  index->add(data.rows, data.labels);
  std::set<std::size_t> erased;
  for (std::size_t id = 0; id < 200; id += 3) {
    ASSERT_TRUE(index->erase(id));
    erased.insert(id);
  }
  for (const auto& q : data.queries) {
    for (const Neighbor& n : index->query_one(q, 4).neighbors) {
      EXPECT_FALSE(erased.count(n.index)) << "tombstoned id " << n.index;
    }
  }
}

TEST(TwoStageConstruction, RejectsBoundedCoarseConfig) {
  // A capacity-bounded coarse TCAM could throw mid-batch after the fine
  // stage accepted the rows, desynchronizing the stages forever - so the
  // constructor refuses it up front.
  sig::SignatureModelConfig model_config;
  model_config.num_bits = 8;
  cam::TcamArrayConfig bounded;
  bounded.max_rows = 4;
  EXPECT_THROW((void)make_two_stage(
                   sig::SignatureModelFactory::instance().create("random", model_config),
                   bounded, std::make_unique<SoftwareNnEngine>("euclidean")),
               std::invalid_argument);
  // Unbounded builds fine.
  auto index = make_two_stage(
      sig::SignatureModelFactory::instance().create("random", model_config),
      cam::TcamArrayConfig{}, std::make_unique<SoftwareNnEngine>("euclidean"));
  const Data data = make_data(20, 4, 1, 307);
  index->add(data.rows, data.labels);
  EXPECT_EQ(index->query_one(data.queries[0], 2).neighbors.size(), 2u);
}

TEST(TwoStageMutation, RejectedFirstBatchDoesNotPinTheCalibration) {
  // A first add rejected by the fine stage (capacity) must not leave the
  // coarse encoders fitted to rows that were never stored - fit-once
  // would pin that calibration forever.
  const Data data = make_data(12, 6, 2, 313);
  sig::SignatureModelConfig model_config;
  model_config.num_bits = 16;
  cam::TcamArrayConfig bounded_fine;
  bounded_fine.max_rows = 4;
  auto index = make_two_stage(
      sig::SignatureModelFactory::instance().create("trained", model_config),
      cam::TcamArrayConfig{}, std::make_unique<TcamLshEngine>(16, 7, bounded_fine));
  const auto& two_stage = dynamic_cast<const TwoStageNnIndex&>(*index);
  EXPECT_THROW(index->add(data.rows, data.labels), std::length_error);
  EXPECT_EQ(index->size(), 0u);
  EXPECT_FALSE(two_stage.signature_model().fitted());
  EXPECT_THROW((void)two_stage.coarse_tcam(), std::logic_error);
  // A batch that fits calibrates on ITS rows and works normally.
  index->add(std::span{data.rows}.subspan(0, 4), std::span{data.labels}.subspan(0, 4));
  EXPECT_EQ(index->size(), 4u);
  EXPECT_EQ(two_stage.coarse_tcam().num_valid(), 4u);
  EXPECT_EQ(index->query_one(data.queries[0], 2).neighbors.size(), 2u);
}

TEST(TwoStageMutation, FailedAddLeavesBothStagesUntouched) {
  // A batch that cannot be encoded (width mismatch against the fitted
  // encoders) must be rejected before EITHER stage stores anything -
  // otherwise the id spaces drift apart forever.
  const Data data = make_data(30, 6, 2, 311);
  EngineConfig config;
  config.num_features = 6;
  config.fine_spec = "euclidean";
  config.coarse_bits = 16;
  auto index = make_index("refine", config);
  index->add(data.rows, data.labels);
  const auto& two_stage = dynamic_cast<const TwoStageNnIndex&>(*index);

  const std::vector<std::vector<float>> narrow(4, std::vector<float>(5, 0.1f));
  const std::vector<int> narrow_labels(4, 0);
  EXPECT_THROW(index->add(narrow, narrow_labels), std::invalid_argument);
  EXPECT_EQ(index->size(), 30u);
  EXPECT_EQ(two_stage.coarse_tcam().num_valid(), 30u);
  // The index keeps working: adds, erases, and queries stay in lockstep.
  index->add(std::span{data.rows}.subspan(0, 2), std::span{data.labels}.subspan(0, 2));
  EXPECT_EQ(index->size(), 32u);
  EXPECT_EQ(two_stage.coarse_tcam().num_valid(), 32u);
  EXPECT_TRUE(index->erase(31));
  for (const auto& q : data.queries) {
    EXPECT_EQ(index->query_one(q, 3).neighbors.size(), 3u);
  }
}

TEST(TwoStageMutation, NonFiniteCalibrationIsRejectedAndRolledBack) {
  // One NaN or infinity among the calibration rows used to calibrate a
  // coarse stage whose every signature had no bit set, so every row tied in
  // the coarse sweep and coarse_margin read 0. Calibrate and the first add
  // must refuse such rows, naming the feature, and leave the coarse stage
  // uncalibrated.
  const Data data = make_data(64, 12, 4, 331);
  EngineConfig config;
  config.num_features = 12;
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity()}) {
    std::vector<std::vector<float>> rows = data.rows;
    rows[20][7] = bad;
    auto index = make_index("refine:coarse_bits=8,sig=itq,fine=euclidean", config);
    const auto& two_stage = dynamic_cast<const TwoStageNnIndex&>(*index);
    try {
      index->calibrate(rows);
      FAIL() << "calibrate accepted " << bad;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string{error.what()}.find("non-finite value at feature 7"),
                std::string::npos)
          << error.what();
    }
    EXPECT_FALSE(two_stage.signature_model().fitted());
    EXPECT_THROW((void)two_stage.coarse_tcam(), std::logic_error);
    EXPECT_THROW(index->add(rows, data.labels), std::invalid_argument);
    EXPECT_EQ(index->size(), 0u);
    // Finite rows still calibrate, and their signatures tell rows apart.
    index->add(data.rows, data.labels);
    EXPECT_TRUE(two_stage.signature_model().fitted());
    std::set<std::vector<cam::Trit>> signatures;
    for (std::size_t id = 0; id < index->size(); ++id) {
      signatures.insert(two_stage.coarse_tcam().row_trits(id));
    }
    EXPECT_GT(signatures.size(), 8u);
  }
}

TEST(TwoStageMargin, ReportsTheNominationCutGap) {
  const Data data = make_data(60, 6, 4, 283);
  EngineConfig config;
  config.num_features = 6;
  config.fine_spec = "euclidean";
  config.coarse_bits = 24;
  config.candidate_factor = 2;
  auto index = make_index("refine", config);
  index->add(data.rows, data.labels);
  for (const auto& q : data.queries) {
    const QueryTelemetry t = index->query_one(q, 3).telemetry;
    EXPECT_GE(t.coarse_margin, 0.0);
    EXPECT_EQ(t.probes_used, 1u);
  }
  // When every live row is nominated there is no cut, hence no margin.
  const QueryTelemetry all = index->query_one(data.queries[0], 60).telemetry;
  EXPECT_EQ(all.coarse_margin, 0.0);
  EXPECT_EQ(all.fine_candidates, 60u);
  // The exhaustive fallback runs no coarse sweep at all.
  config.refine_exhaustive = true;
  auto fallback = make_index("refine", config);
  fallback->add(data.rows, data.labels);
  const QueryTelemetry bypass = fallback->query_one(data.queries[0], 3).telemetry;
  EXPECT_EQ(bypass.probes_used, 0u);
  EXPECT_EQ(bypass.coarse_margin, 0.0);
}

TEST(TwoStageIdentity, LearnedModelsStillExactWhenNominatingEveryRow) {
  // The signature model only picks candidates; with candidate_factor
  // covering every live row the pipeline must stay bit-identical to the
  // fine backend for the trained and itq models too (and multi-probe).
  const Data data = make_data(50, 6, 4, 293);
  EngineConfig config;
  config.num_features = 6;
  auto fine_alone = make_index("mcam2", config);
  fine_alone->add(data.rows, data.labels);
  for (const char* sig : {"trained", "itq"}) {
    auto index = make_index(std::string{"refine:coarse_bits=16,candidate_factor=1000,"
                                        "probes=4,sig="} +
                                sig + ",fine=mcam2",
                            config);
    index->add(data.rows, data.labels);
    for (const auto& q : data.queries) {
      expect_identical(index->query_one(q, 5), fine_alone->query_one(q, 5),
                       std::string{"learned full-candidates sig="} + sig);
    }
  }
}

TEST(TwoStageIdentity, OverflowingCandidateFactorNominatesEveryRow) {
  // 1844674407370955162 * 10 wraps to 4 in 64 bits; the budget must
  // saturate at every live (or eligible) row instead, exactly like a
  // factor that merely covers them.
  const Data data = make_data(512, 6, 20, 389);
  EngineConfig config;
  config.num_features = 6;
  const std::string tail = ",coarse_bits=16,tag_bits=4,fine=euclidean";
  auto huge = make_index("refine:candidate_factor=1844674407370955162" + tail, config);
  auto covering = make_index("refine:candidate_factor=1000" + tail, config);
  const std::vector<std::vector<std::uint8_t>> bands(data.rows.size(), {1, 0, 0, 0});
  for (auto* index : {huge.get(), covering.get()}) {
    dynamic_cast<TwoStageNnIndex&>(*index).add_tagged(data.rows, data.labels, bands);
  }
  const std::vector<std::uint8_t> required{1, 0, 0, 0};
  const auto& huge_two = dynamic_cast<const TwoStageNnIndex&>(*huge);
  const auto& covering_two = dynamic_cast<const TwoStageNnIndex&>(*covering);
  for (const auto& q : data.queries) {
    const QueryResult got = huge->query_one(q, 10);
    EXPECT_EQ(got.telemetry.fine_candidates, 512u);
    expect_identical(got, covering->query_one(q, 10), "query_one");
    const auto filtered = huge_two.query_filtered(q, 10, required, {});
    ASSERT_TRUE(filtered.has_value());
    EXPECT_EQ(filtered->telemetry.fine_candidates, 512u);
    expect_identical(*filtered, *covering_two.query_filtered(q, 10, required, {}),
                     "query_filtered");
  }
}

TEST(TwoStageSpec, BuildsNestedShardedFineStageFromOneSpecString) {
  const Data data = make_data(70, 6, 3, 251);
  EngineConfig config;
  config.num_features = 6;
  auto index = make_index(
      "refine:coarse_bits=32,candidate_factor=1000,fine=sharded-mcam:bits=2,bank_rows=16",
      config);
  index->add(data.rows, data.labels);
  EXPECT_NE(index->name().find("two-stage"), std::string::npos);
  EXPECT_NE(index->name().find("2-bit MCAM"), std::string::npos);

  auto fine_alone = make_index("sharded-mcam:bits=2,bank_rows=16", config);
  fine_alone->add(data.rows, data.labels);
  for (const auto& q : data.queries) {
    expect_identical(index->query_one(q, 5), fine_alone->query_one(q, 5),
                     "nested sharded fine stage");
  }
}

TEST(TwoStageServing, SnapshotRoundTripsThroughQueryService) {
  // Acceptance: a refine:* index with a trained signature model and
  // multi-probe snapshot-restores through the service with identical
  // answers (the fitted projections persist bit-exactly in format v3).
  const std::string spec =
      "refine:coarse_bits=48,candidate_factor=4,sig=trained,probes=4,"
      "fine=sharded-mcam3:bank_rows=24";
  const Data data = make_data(90, 6, 6, 257);
  EngineConfig config;
  config.num_features = 6;
  auto original = make_index(spec, config);
  original->add(data.rows, data.labels);
  for (std::size_t id : {std::size_t{4}, std::size_t{40}, std::size_t{77}}) {
    ASSERT_TRUE(original->erase(id));
  }

  const std::vector<std::uint8_t> blob = serve::save(*original, spec, config);
  const serve::SnapshotInfo info = serve::inspect(blob);
  EXPECT_EQ(info.engine, "refine");
  EXPECT_EQ(info.version, serve::kSnapshotVersion);
  EXPECT_EQ(info.config.coarse_bits, 48u);
  EXPECT_EQ(info.config.candidate_factor, 4u);
  EXPECT_EQ(info.config.sig_model, "trained");
  EXPECT_EQ(info.config.probes, 4u);
  EXPECT_EQ(info.config.fine_spec, "sharded-mcam3:bank_rows=24");

  auto restored = serve::load(blob);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->size(), original->size());
  // The trained projections and thresholds restore bit-exactly.
  const auto& original_model =
      dynamic_cast<const TwoStageNnIndex&>(*original).signature_model();
  const auto& restored_model =
      dynamic_cast<const TwoStageNnIndex&>(*restored).signature_model();
  EXPECT_EQ(restored_model.key(), "trained");
  EXPECT_EQ(restored_model.planes(), original_model.planes());
  EXPECT_EQ(restored_model.thresholds(), original_model.thresholds());

  serve::QueryServiceConfig service_config;
  service_config.workers = 1;
  service_config.cache_capacity = 8;
  serve::QueryService service{*restored, service_config};
  for (const auto& q : data.queries) {
    const serve::QueryResponse response = service.query_one(q, 5);
    ASSERT_EQ(response.status, serve::RequestStatus::kOk);
    expect_identical(response.result, original->query_one(q, 5), "served restore");
  }
  // Mutations through the service keep both stages in sync post-restore.
  ASSERT_TRUE(service.erase(50));
  const serve::QueryResponse after = service.query_one(data.queries[0], restored->size());
  ASSERT_EQ(after.status, serve::RequestStatus::kOk);
  for (const Neighbor& n : after.result.neighbors) EXPECT_NE(n.index, 50u);
}

TEST(KConvention, ZeroKEqualsOneKForEveryRegisteredBackend) {
  // The k-convention satellite: k = 0 normalizes to 1-NN identically for
  // all five backends, the sharded twins, and the two-stage pipeline.
  const Data data = make_data(40, 6, 4, 263);
  for (const std::string& name : EngineFactory::instance().registered_names()) {
    EngineConfig config;
    config.num_features = 6;
    config.bank_rows = name.rfind("sharded-", 0) == 0 ? 8 : 0;
    if (name == "refine") config.fine_spec = "euclidean";
    auto index = make_index(name, config);
    index->add(data.rows, data.labels);
    for (const auto& q : data.queries) {
      expect_identical(index->query_one(q, 0), index->query_one(q, 1),
                       name + " k=0 vs k=1");
      EXPECT_EQ(index->query_one(q, 0).neighbors.size(), 1u) << name;
    }
  }
  // An MCAM with a measured table is not a registry builtin (it needs a
  // conductance table) but is bound by the same contract.
  cam::McamArrayConfig table_config;
  table_config.level_map = fefet::LevelMap{2};
  table_config.lut = std::make_shared<const cam::ConductanceLut>(
      cam::ConductanceLut::nominal(fefet::LevelMap{2}));
  McamNnEngine table_engine{table_config};
  table_engine.add(data.rows, data.labels);
  for (const auto& q : data.queries) {
    expect_identical(table_engine.query_one(q, 0), table_engine.query_one(q, 1),
                     "mcam-lut k=0 vs k=1");
  }
}

TEST(TagBand, ValidationAndErrorPaths) {
  const Data data = make_data(24, 6, 2, 311);
  EngineConfig config;
  config.num_features = 6;
  config.fine_spec = "euclidean";
  config.coarse_bits = 24;

  // A pipeline built without a tag band rejects the band APIs outright.
  auto bandless = make_index("refine", config);
  auto& bandless_two = dynamic_cast<TwoStageNnIndex&>(*bandless);
  const std::vector<std::vector<std::uint8_t>> one_band{{1, 0, 0, 0}};
  EXPECT_THROW(bandless_two.add_tagged(
                   std::span<const std::vector<float>>(data.rows.data(), 1),
                   std::span<const int>(data.labels.data(), 1), one_band),
               std::invalid_argument);
  bandless->add(data.rows, data.labels);
  EXPECT_THROW(
      (void)bandless_two.query_filtered(data.queries[0], 3, one_band[0], {}),
      std::invalid_argument);

  // With a band: filtered queries before add have no coarse stage to sweep.
  config.tag_bits = 4;
  auto banded = make_index("refine", config);
  auto& banded_two = dynamic_cast<TwoStageNnIndex&>(*banded);
  EXPECT_EQ(banded_two.tag_bits(), 4u);
  const std::vector<std::uint8_t> band{1, 0, 0, 0};
  EXPECT_THROW((void)banded_two.query_filtered(data.queries[0], 3, band, {}),
               std::logic_error);
  // Wrong bitmap width on add: rejected before anything is mutated.
  const std::vector<std::vector<std::uint8_t>> wrong(data.rows.size(),
                                                     std::vector<std::uint8_t>{1, 0});
  EXPECT_THROW(banded_two.add_tagged(data.rows, data.labels, wrong),
               std::invalid_argument);
  EXPECT_EQ(banded->size(), 0u);
  const std::vector<std::vector<std::uint8_t>> bands(data.rows.size(), band);
  banded_two.add_tagged(data.rows, data.labels, bands);
  EXPECT_THROW((void)banded_two.query_filtered(data.queries[0], 3,
                                               std::vector<std::uint8_t>{1, 0}, {}),
               std::invalid_argument);

  // Exhaustive fallback skips the coarse stage entirely - there is no
  // TCAM sweep to push the band into, so the call is a contract error.
  config.refine_exhaustive = true;
  auto exhaustive = make_index("refine", config);
  auto& exhaustive_two = dynamic_cast<TwoStageNnIndex&>(*exhaustive);
  exhaustive_two.add_tagged(data.rows, data.labels, bands);
  EXPECT_THROW((void)exhaustive_two.query_filtered(data.queries[0], 3, band, {}),
               std::logic_error);
}

TEST(TagBand, FilteredQueryMatchesSubsetPostFilterExactly) {
  // Acceptance: with a candidate budget covering every eligible row, the
  // band-pushed coarse sweep returns bit-identically what the fine stage
  // says about the predicate-satisfying subset - per fine backend.
  const Data data = make_data(36, 6, 5, 331);
  for (const std::string& fine :
       {std::string{"euclidean"}, std::string{"mcam3"},
        std::string{"sharded-mcam3:bank_rows=16"}}) {
    EngineConfig config;
    config.num_features = 6;
    config.fine_spec = fine;
    config.coarse_bits = 32;
    config.tag_bits = 8;
    config.candidate_factor = 64;
    auto index = make_index("refine", config);
    auto& two = dynamic_cast<TwoStageNnIndex&>(*index);
    EXPECT_NE(two.name().find("8t"), std::string::npos);

    // Rows carry one band bit each: slot r % 3. Slot 7 stays empty.
    std::vector<std::vector<std::uint8_t>> bands;
    for (std::size_t r = 0; r < data.rows.size(); ++r) {
      std::vector<std::uint8_t> b(8, 0);
      b[r % 3] = 1;
      bands.push_back(std::move(b));
    }
    two.add_tagged(data.rows, data.labels, bands);

    for (std::size_t group = 0; group < 3; ++group) {
      std::vector<std::size_t> members;
      for (std::size_t r = 0; r < data.rows.size(); ++r) {
        if (r % 3 == group) members.push_back(r);
      }
      std::vector<std::uint8_t> required(8, 0);
      required[group] = 1;
      const auto verify = [&](std::size_t id) { return id % 3 == group; };
      for (const auto& q : data.queries) {
        for (std::size_t k : {std::size_t{1}, std::size_t{5}}) {
          const auto filtered = two.query_filtered(q, k, required, verify);
          ASSERT_TRUE(filtered.has_value()) << fine;
          expect_identical(*filtered, index->query_subset(q, members, k),
                           fine + " band vs subset");
          // Exactly one band bit per row: no hash collisions, so the
          // in-array exclusion count is the full complement.
          EXPECT_EQ(filtered->telemetry.filtered_out,
                    data.rows.size() - members.size())
              << fine;
          EXPECT_EQ(filtered->telemetry.fine_candidates, members.size()) << fine;
        }
      }
    }

    // A slot no row carries: nothing is eligible, the caller falls back.
    std::vector<std::uint8_t> empty_slot(8, 0);
    empty_slot[7] = 1;
    EXPECT_FALSE(two.query_filtered(data.queries[0], 3, empty_slot, {}).has_value());
    // Verify rejecting every nominee behaves the same as no eligible row.
    std::vector<std::uint8_t> group0(8, 0);
    group0[0] = 1;
    EXPECT_FALSE(two.query_filtered(data.queries[0], 3, group0,
                                    [](std::size_t) { return false; })
                     .has_value());
  }
}

TEST(TagBand, UntaggedAndErasedRowsAreNeverEligible) {
  const Data data = make_data(30, 6, 4, 347);
  EngineConfig config;
  config.num_features = 6;
  config.fine_spec = "euclidean";
  config.coarse_bits = 32;
  config.tag_bits = 6;
  config.candidate_factor = 64;
  auto index = make_index("refine", config);
  auto& two = dynamic_cast<TwoStageNnIndex&>(*index);

  // First 20 rows tagged on slot 0; last 10 added untagged (all-zero band).
  std::vector<std::vector<std::uint8_t>> bands(20, std::vector<std::uint8_t>(6, 0));
  for (auto& b : bands) b[0] = 1;
  two.add_tagged(std::span<const std::vector<float>>(data.rows.data(), 20),
                 std::span<const int>(data.labels.data(), 20), bands);
  index->add(std::span<const std::vector<float>>(data.rows.data() + 20, 10),
             std::span<const int>(data.labels.data() + 20, 10));
  ASSERT_EQ(index->size(), 30u);

  std::vector<std::uint8_t> required(6, 0);
  required[0] = 1;
  for (const auto& q : data.queries) {
    const auto filtered = two.query_filtered(q, 30, required, {});
    ASSERT_TRUE(filtered.has_value());
    EXPECT_EQ(filtered->neighbors.size(), 20u);
    for (const Neighbor& n : filtered->neighbors) EXPECT_LT(n.index, 20u);
    EXPECT_EQ(filtered->telemetry.filtered_out, 10u);
  }

  ASSERT_TRUE(index->erase(7));
  const auto after = two.query_filtered(data.queries[0], 30, required, {});
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->neighbors.size(), 19u);
  for (const Neighbor& n : after->neighbors) EXPECT_NE(n.index, 7u);
}

TEST(TagBand, SnapshotRoundTripRestoresBandFiltering) {
  // The banded payload ("two-stage-v3") restores the widened TCAM rows
  // bit-identically: filtered and unfiltered answers survive save/load.
  const Data data = make_data(32, 6, 4, 359);
  const std::string spec =
      "refine:coarse_bits=32,tag_bits=8,candidate_factor=64,sig=trained,"
      "fine=euclidean";
  EngineConfig config;
  config.num_features = 6;
  auto original = make_index(spec, config);
  auto& original_two = dynamic_cast<TwoStageNnIndex&>(*original);
  std::vector<std::vector<std::uint8_t>> bands;
  for (std::size_t r = 0; r < data.rows.size(); ++r) {
    std::vector<std::uint8_t> b(8, 0);
    b[r % 2] = 1;
    bands.push_back(std::move(b));
  }
  original_two.add_tagged(data.rows, data.labels, bands);
  ASSERT_TRUE(original->erase(4));

  const std::vector<std::uint8_t> blob = serve::save(*original, spec, config);
  const serve::SnapshotInfo info = serve::inspect(blob);
  EXPECT_EQ(info.version, serve::kSnapshotVersion);
  EXPECT_EQ(info.config.tag_bits, 8u);

  auto restored = serve::load(blob);
  auto& restored_two = dynamic_cast<TwoStageNnIndex&>(*restored);
  EXPECT_EQ(restored_two.tag_bits(), 8u);
  std::vector<std::uint8_t> required(8, 0);
  required[1] = 1;
  const auto verify = [](std::size_t id) { return id % 2 == 1; };
  for (const auto& q : data.queries) {
    expect_identical(restored->query_one(q, 5), original->query_one(q, 5),
                     "banded restore unfiltered");
    const auto a = original_two.query_filtered(q, 5, required, verify);
    const auto b = restored_two.query_filtered(q, 5, required, verify);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    expect_identical(*a, *b, "banded restore filtered");
  }

  // Config/payload band mismatches fail loudly in both directions.
  EngineConfig bandless_config = config;
  bandless_config.tag_bits = 0;
  {
    auto target = make_index("refine:coarse_bits=32,candidate_factor=64,"
                             "sig=trained,fine=euclidean",
                             bandless_config);
    serve::io::Writer payload;
    original_two.save_state(payload);
    const std::vector<std::uint8_t>& bytes = payload.buffer();
    serve::io::Reader in{bytes};
    EXPECT_THROW(target->load_state(in), serve::io::SnapshotError);
  }
  {
    auto bandless = make_index("refine:coarse_bits=32,candidate_factor=64,"
                               "sig=trained,fine=euclidean",
                               bandless_config);
    bandless->add(data.rows, data.labels);
    serve::io::Writer payload;
    bandless->save_state(payload);
    const std::vector<std::uint8_t>& bytes = payload.buffer();
    serve::io::Reader in{bytes};
    EXPECT_THROW(original_two.load_state(in), serve::io::SnapshotError);
  }
}

}  // namespace
}  // namespace mcam::search
