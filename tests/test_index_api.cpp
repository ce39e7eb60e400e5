// The batched top-k NnIndex API: native top-k ranking validated against
// the exact software index, batch-vs-sequential equality (including the
// parallel BatchExecutor), the string-keyed EngineFactory registry, and
// incremental add-after-calibration semantics.
#include "search/batch.hpp"
#include "search/engine.hpp"
#include "search/factory.hpp"
#include "search/knn.hpp"

#include "distance/mcam_distance.hpp"
#include "experiments/lut_engine.hpp"
#include "experiments/stack.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace mcam::search {
namespace {

/// Labeled Gaussian blobs in `dim` dimensions, one blob per class.
struct Blobs {
  std::vector<std::vector<float>> train;
  std::vector<int> train_labels;
  std::vector<std::vector<float>> queries;
};

Blobs make_blobs(std::size_t per_class, std::size_t classes, std::size_t dim,
                 double spread, std::uint64_t seed) {
  Blobs blobs;
  Rng rng{seed};
  const auto sample = [&](std::size_t cls) {
    std::vector<float> v(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      v[i] = static_cast<float>(rng.normal(static_cast<double>(cls) * 2.0 +
                                               static_cast<double>(i % 3) * 0.4,
                                           spread));
    }
    return v;
  };
  for (std::size_t cls = 0; cls < classes; ++cls) {
    for (std::size_t i = 0; i < per_class; ++i) {
      blobs.train.push_back(sample(cls));
      blobs.train_labels.push_back(static_cast<int>(cls));
      blobs.queries.push_back(sample(cls));
    }
  }
  return blobs;
}

/// Every engine's invariants: sorted scores, distinct indices, k clamping,
/// top-1 == predict, telemetry counters.
void check_query_invariants(const NnIndex& index, std::span<const std::vector<float>> queries,
                            std::size_t k, bool cam_engine) {
  for (const auto& q : queries) {
    const QueryResult result = index.query_one(q, k);
    const std::size_t expect = std::min(std::max<std::size_t>(k, 1), index.size());
    ASSERT_EQ(result.neighbors.size(), expect);
    std::set<std::size_t> seen;
    for (std::size_t i = 0; i < result.neighbors.size(); ++i) {
      seen.insert(result.neighbors[i].index);
      if (i > 0) {
        EXPECT_GE(result.neighbors[i].distance, result.neighbors[i - 1].distance);
      }
    }
    EXPECT_EQ(seen.size(), result.neighbors.size());
    EXPECT_EQ(result.telemetry.candidates, index.size());
    if (cam_engine) {
      EXPECT_EQ(result.telemetry.sense_events, expect);
      EXPECT_GT(result.telemetry.energy_j, 0.0);
    }
  }
}

TEST(NnIndexTopK, McamRankingMatchesExactIndexUnderIdealSensing) {
  // Acceptance: the MCAM's matchline-current ordering must equal an exact
  // software scan of the *same* distance function (nominal LUT over the
  // engine's own quantized levels) - no variation, ideal sensing.
  const Blobs blobs = make_blobs(12, 4, 8, 0.5, 31);
  McamNnEngine engine{};
  engine.add(blobs.train, blobs.train_labels);

  const distance::McamDistance lut_distance{engine.array().lut()};
  const encoding::UniformQuantizer& quantizer = engine.quantizer();
  ExactNnIndex reference{[&](std::span<const float> a, std::span<const float> b) {
    return lut_distance(quantizer.quantize(a), quantizer.quantize(b));
  }};
  reference.add_all(blobs.train, blobs.train_labels);

  for (const auto& q : blobs.queries) {
    const QueryResult result = engine.query_one(q, 5);
    const std::vector<Neighbor> expected = reference.k_nearest(q, 5);
    ASSERT_EQ(result.neighbors.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(result.neighbors[i].index, expected[i].index) << "rank " << i;
      EXPECT_EQ(result.neighbors[i].label, expected[i].label) << "rank " << i;
      EXPECT_NEAR(result.neighbors[i].distance, expected[i].distance,
                  1e-12 + 1e-9 * expected[i].distance);
    }
  }
}

TEST(NnIndexTopK, LutEngineAgreesWithArrayEngineTopK) {
  const Blobs blobs = make_blobs(10, 3, 6, 0.5, 33);
  const experiments::Stack stack;
  experiments::McamLutEngine lut_engine{
      cam::ConductanceLut::nominal(stack.level_map(3), stack.channel()), 3};
  McamNnEngine array_engine{};
  lut_engine.add(blobs.train, blobs.train_labels);
  array_engine.add(blobs.train, blobs.train_labels);
  for (const auto& q : blobs.queries) {
    const auto a = lut_engine.query_one(q, 4);
    const auto b = array_engine.query_one(q, 4);
    ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
    for (std::size_t i = 0; i < a.neighbors.size(); ++i) {
      EXPECT_EQ(a.neighbors[i].index, b.neighbors[i].index) << "rank " << i;
    }
  }
}

TEST(NnIndexTopK, InvariantsHoldForEveryBackend) {
  const Blobs blobs = make_blobs(8, 3, 8, 0.4, 35);
  SoftwareNnEngine software{"euclidean"};
  TcamLshEngine tcam{64, 5};
  McamNnEngine mcam{};
  software.add(blobs.train, blobs.train_labels);
  tcam.add(blobs.train, blobs.train_labels);
  mcam.add(blobs.train, blobs.train_labels);
  for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{100}}) {
    check_query_invariants(software, blobs.queries, k, false);
    check_query_invariants(tcam, blobs.queries, k, true);
    check_query_invariants(mcam, blobs.queries, k, true);
  }
}

TEST(NnIndexTopK, TimingSensedTopOneMatchesWtaWinner) {
  // Under kMatchlineTiming with a coarse sense clock, the top-1 of the
  // ranked list must be exactly the row the WTA amplifier latches.
  const Blobs blobs = make_blobs(10, 3, 8, 0.6, 37);
  cam::McamArrayConfig config;
  config.sensing = cam::SensingMode::kMatchlineTiming;
  config.sense_clock_period = 1e-9;  // Coarse clock: ties are frequent.
  McamNnEngine engine{config};
  engine.add(blobs.train, blobs.train_labels);
  for (const auto& q : blobs.queries) {
    const auto levels = engine.quantizer().quantize(q);
    EXPECT_EQ(engine.query_one(q, 3).neighbors.front().index,
              engine.array().nearest(levels).row);
  }
}

TEST(NnIndexBatch, BatchEqualsSequentialForAllPaperEngines) {
  const Blobs blobs = make_blobs(10, 4, 8, 0.5, 41);
  SoftwareNnEngine software{"cosine"};
  TcamLshEngine tcam{64, 7};
  McamNnEngine mcam{};
  for (NnIndex* index : {static_cast<NnIndex*>(&software), static_cast<NnIndex*>(&tcam),
                         static_cast<NnIndex*>(&mcam)}) {
    index->add(blobs.train, blobs.train_labels);
    const std::vector<QueryResult> batched = index->query(blobs.queries, 3);
    ASSERT_EQ(batched.size(), blobs.queries.size());
    for (std::size_t i = 0; i < blobs.queries.size(); ++i) {
      const QueryResult single = index->query_one(blobs.queries[i], 3);
      EXPECT_EQ(batched[i].label, single.label) << index->name();
      ASSERT_EQ(batched[i].neighbors.size(), single.neighbors.size());
      for (std::size_t n = 0; n < single.neighbors.size(); ++n) {
        EXPECT_EQ(batched[i].neighbors[n].index, single.neighbors[n].index);
        EXPECT_DOUBLE_EQ(batched[i].neighbors[n].distance, single.neighbors[n].distance);
      }
    }
  }
}

TEST(NnIndexBatch, ParallelExecutorMatchesSequentialAtEveryThreadCount) {
  const Blobs blobs = make_blobs(15, 4, 8, 0.5, 43);
  McamNnEngine engine{};
  engine.add(blobs.train, blobs.train_labels);
  const std::vector<QueryResult> sequential = engine.query(blobs.queries, 2);
  for (std::size_t threads : {1u, 2u, 4u, 7u}) {
    BatchOptions options;
    options.num_threads = threads;
    options.min_shard_size = 1;
    const BatchExecutor executor{options};
    const std::vector<QueryResult> parallel = executor.run(engine, blobs.queries, 2);
    ASSERT_EQ(parallel.size(), sequential.size());
    for (std::size_t i = 0; i < sequential.size(); ++i) {
      EXPECT_EQ(parallel[i].label, sequential[i].label) << threads << " threads";
      ASSERT_EQ(parallel[i].neighbors.size(), sequential[i].neighbors.size());
      for (std::size_t n = 0; n < sequential[i].neighbors.size(); ++n) {
        EXPECT_EQ(parallel[i].neighbors[n].index, sequential[i].neighbors[n].index);
        EXPECT_DOUBLE_EQ(parallel[i].neighbors[n].distance,
                         sequential[i].neighbors[n].distance);
      }
    }
  }
}

TEST(NnIndexBatch, ExecutorPropagatesWorkerExceptions) {
  McamNnEngine engine{};
  const Blobs blobs = make_blobs(4, 2, 8, 0.5, 45);
  engine.add(blobs.train, blobs.train_labels);
  // One malformed query (wrong dimension) inside a parallel batch.
  std::vector<std::vector<float>> batch = blobs.queries;
  batch[2] = {1.0f, 2.0f};
  BatchOptions options;
  options.num_threads = 4;
  options.min_shard_size = 1;
  EXPECT_THROW((void)BatchExecutor{options}.run(engine, batch, 1), std::invalid_argument);
}

TEST(NnIndexBatch, EmptyBatchYieldsNoResults) {
  McamNnEngine engine{};
  const Blobs blobs = make_blobs(4, 2, 8, 0.5, 47);
  engine.add(blobs.train, blobs.train_labels);
  EXPECT_TRUE(engine.query({}, 3).empty());
  EXPECT_TRUE(BatchExecutor{}.run(engine, {}, 3).empty());
}

TEST(EngineFactoryRegistry, RoundTripsEveryRegisteredName) {
  // Acceptance: every registered name builds an engine that fits and
  // serves top-k queries.
  const Blobs blobs = make_blobs(8, 3, 8, 0.5, 49);
  EngineConfig config;
  config.num_features = 8;
  for (const std::string& name : EngineFactory::instance().registered_names()) {
    EngineConfig engine_config = config;
    if (name == "refine") engine_config.fine_spec = "euclidean";
    auto index = make_index(name, engine_config);
    ASSERT_NE(index, nullptr) << name;
    EXPECT_FALSE(index->name().empty()) << name;
    index->add(blobs.train, blobs.train_labels);
    EXPECT_EQ(index->size(), blobs.train.size()) << name;
    const QueryResult result = index->query_one(blobs.queries.front(), 3);
    EXPECT_EQ(result.neighbors.size(), 3u) << name;
  }
}

TEST(EngineFactoryRegistry, BuiltinsPresentAndUnknownNameThrows) {
  const EngineFactory& factory = EngineFactory::instance();
  for (const char* name : {"mcam3", "mcam2", "mcam", "tcam-lsh", "cosine", "euclidean"}) {
    EXPECT_TRUE(factory.contains(name)) << name;
  }
  EXPECT_FALSE(factory.contains("flux-capacitor"));
  EXPECT_THROW((void)factory.create("flux-capacitor", EngineConfig{}),
               std::invalid_argument);
}

TEST(EngineFactoryRegistry, McamBitsAndLshBitsAreHonored) {
  EngineConfig config;
  config.num_features = 16;
  config.mcam_bits = 2;
  EXPECT_EQ(make_index("mcam", config)->name(), "2-bit MCAM");
  EXPECT_EQ(make_index("mcam3", config)->name(), "3-bit MCAM");
  EXPECT_EQ(make_index("tcam-lsh", config)->name(), "TCAM+LSH (16b)");
  config.lsh_bits = 128;
  EXPECT_EQ(make_index("tcam-lsh", config)->name(), "TCAM+LSH (128b)");
}

TEST(EngineFactoryRegistry, CustomRegistrationIsCreatable) {
  EngineFactory& factory = EngineFactory::instance();
  factory.register_engine("test-manhattan", [](const EngineConfig&) {
    return std::make_unique<SoftwareNnEngine>("manhattan");
  });
  EXPECT_TRUE(factory.contains("test-manhattan"));
  EXPECT_EQ(factory.create("test-manhattan", EngineConfig{})->name(), "manhattan (FP32)");
}

TEST(NnIndexIncremental, AddAfterCalibrationExtendsTheIndex) {
  const Blobs blobs = make_blobs(10, 2, 8, 0.4, 51);
  McamNnEngine engine{};
  // First batch calibrates the quantizer; the second streams in afterwards.
  const std::span<const std::vector<float>> all{blobs.train};
  const std::span<const int> all_labels{blobs.train_labels};
  engine.add(all.subspan(0, 10), all_labels.subspan(0, 10));
  EXPECT_EQ(engine.size(), 10u);
  const encoding::UniformQuantizer calibrated = engine.quantizer();
  engine.add(all.subspan(10), all_labels.subspan(10));
  EXPECT_EQ(engine.size(), blobs.train.size());
  // The quantizer was not refitted by the second add.
  EXPECT_EQ(engine.quantizer().quantize(blobs.queries.front()),
            calibrated.quantize(blobs.queries.front()));
  // Entries from both batches are retrievable.
  std::set<int> labels_seen;
  for (const auto& q : blobs.queries) labels_seen.insert(engine.query_one(q, 1).label);
  EXPECT_EQ(labels_seen.size(), 2u);
}

TEST(NnIndexIncremental, FailedAddLeavesTheIndexConsistent) {
  // Regression: a batch that throws mid-validation (dimension mismatch
  // after calibration) must not desync labels from programmed rows.
  const Blobs blobs = make_blobs(6, 2, 8, 0.4, 57);
  McamNnEngine mcam{};
  TcamLshEngine tcam{32, 3};
  mcam.add(blobs.train, blobs.train_labels);
  tcam.add(blobs.train, blobs.train_labels);
  SoftwareNnEngine software{"euclidean"};
  software.add(blobs.train, blobs.train_labels);
  const std::vector<std::vector<float>> bad_batch{blobs.train.front(), {1.0f, 2.0f}};
  const std::vector<int> bad_labels{0, 1};
  EXPECT_THROW(mcam.add(bad_batch, bad_labels), std::invalid_argument);
  EXPECT_THROW(tcam.add(bad_batch, bad_labels), std::invalid_argument);
  EXPECT_THROW(software.add(bad_batch, bad_labels), std::invalid_argument);
  EXPECT_EQ(mcam.size(), blobs.train.size());
  EXPECT_EQ(tcam.size(), blobs.train.size());
  // All-or-nothing: the valid first row of the bad batch was not committed.
  EXPECT_EQ(software.size(), blobs.train.size());
  // Full-size top-k still works (would be UB if labels outran the rows).
  EXPECT_EQ(mcam.query_one(blobs.queries.front(), mcam.size()).neighbors.size(),
            blobs.train.size());
  EXPECT_EQ(tcam.query_one(blobs.queries.front(), tcam.size()).neighbors.size(),
            blobs.train.size());
}

TEST(NnIndexBatch, ShardFloorLimitsWorkerCount) {
  BatchOptions options;
  options.num_threads = 8;
  options.min_shard_size = 8;
  const BatchExecutor executor{options};
  EXPECT_EQ(executor.threads_for(0), 0u);
  EXPECT_EQ(executor.threads_for(7), 1u);   // Below the floor: no fan-out.
  EXPECT_EQ(executor.threads_for(9), 1u);   // A second worker would get < 8.
  EXPECT_EQ(executor.threads_for(16), 2u);
  EXPECT_EQ(executor.threads_for(1000), 8u);
}

TEST(NnIndexIncremental, ClearThenAddRecalibrates) {
  const Blobs near_origin = make_blobs(8, 2, 8, 0.3, 53);
  McamNnEngine engine{};
  engine.add(near_origin.train, near_origin.train_labels);
  const auto before = engine.quantizer().quantize(near_origin.queries.front());
  // Refit on shifted data: the quantizer must be refitted, not reused.
  std::vector<std::vector<float>> shifted = near_origin.train;
  for (auto& row : shifted) {
    for (auto& v : row) v += 50.0f;
  }
  engine.clear();
  engine.add(shifted, near_origin.train_labels);
  EXPECT_EQ(engine.size(), shifted.size());
  const auto after = engine.quantizer().quantize(near_origin.queries.front());
  EXPECT_NE(before, after);
}

TEST(NnIndexIncremental, CalibrateWithoutStoringRows) {
  // calibrate() fits the encoders exactly as the first add would, but
  // stores nothing - the deployment path for base-split calibration and
  // the contract the shard layer relies on for cross-bank comparability.
  const Blobs blobs = make_blobs(8, 2, 8, 0.4, 59);
  McamNnEngine calibrated{};
  calibrated.calibrate(blobs.train);
  EXPECT_EQ(calibrated.size(), 0u);
  McamNnEngine reference{};
  reference.add(blobs.train, blobs.train_labels);
  // Same quantizer as the engine that calibrated on its first add.
  EXPECT_EQ(calibrated.quantizer().quantize(blobs.queries.front()),
            reference.quantizer().quantize(blobs.queries.front()));
  // A later add streams in without refitting.
  calibrated.add(blobs.train, blobs.train_labels);
  EXPECT_EQ(calibrated.size(), blobs.train.size());
  EXPECT_EQ(calibrated.query_one(blobs.queries.front(), 3).neighbors.front().index,
            reference.query_one(blobs.queries.front(), 3).neighbors.front().index);
}

TEST(MajorityVote, OutvotesNearestOutlier) {
  // Nearest neighbor is a mislabeled outlier; ranks 2 and 3 agree.
  const std::vector<Neighbor> neighbors{{0, 9, 1.0}, {1, 7, 2.0}, {2, 7, 3.0}};
  EXPECT_EQ(majority_label(neighbors), 7);
}

TEST(MajorityVote, TieBreaksToSmallerScoreSum)  {
  const std::vector<Neighbor> neighbors{{0, 1, 1.0}, {1, 2, 1.5}, {2, 2, 4.0}, {3, 1, 2.0}};
  // Both labels have 2 votes; label 1 sums to 3.0 < label 2's 5.5.
  EXPECT_EQ(majority_label(neighbors), 1);
}

TEST(MajorityVote, SingleNeighborIsItsLabel) {
  EXPECT_EQ(majority_label(std::vector<Neighbor>{{4, 42, 0.5}}), 42);
  EXPECT_THROW((void)majority_label({}), std::invalid_argument);
}

}  // namespace
}  // namespace mcam::search
