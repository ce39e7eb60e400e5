// Online health monitoring (obs/health): the cam-layer readback hooks
// (row_readback / row_health vs the programmed levels), the drift_sigma
// spec key and inject_drift model, scrub_index's walk over every engine
// shape, RecallCanary scoring semantics against a hand-built ground
// truth, HealthMonitor alarm edges, and the end-to-end acceptance gate:
// drift injected mid-run makes the online recall estimate drop and fires
// both alarm kinds within a bounded number of canary/scrub cycles, while
// a clean run stays all-quiet.
#include "cam/array.hpp"
#include "cam/tcam.hpp"
#include "obs/exporters.hpp"
#include "obs/health/health.hpp"
#include "obs/metrics.hpp"
#include "search/factory.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "store/manager.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

namespace mcam {
namespace {

using obs::health::BankHealth;
using obs::health::CanaryOptions;
using obs::health::CanaryReport;
using obs::health::HealthReport;
using obs::health::MonitorOptions;

/// Labeled Gaussian blobs, one blob per class (the test_index_api idiom).
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

const BankHealth* find_bank(const std::vector<BankHealth>& banks, const std::string& name) {
  for (const BankHealth& bank : banks) {
    if (bank.bank == name) return &bank;
  }
  return nullptr;
}

std::size_t total_mismatches(const std::vector<BankHealth>& banks) {
  std::size_t total = 0;
  for (const BankHealth& bank : banks) total += bank.mismatched_cells;
  return total;
}

// --- Cam-layer readback hooks ----------------------------------------------

TEST(RowReadback, NoiselessMcamReadsBackItsProgrammedLevels) {
  cam::McamArrayConfig config;
  config.level_map = fefet::LevelMap{2};
  cam::McamArray array{config};
  const std::vector<std::uint16_t> levels{0, 1, 2, 3, 1};
  const std::size_t row = array.add_row(levels);
  EXPECT_EQ(array.row_readback(row), levels);
  EXPECT_EQ(array.row_readback(row), array.row_levels(row));
  const cam::RowHealth health = array.row_health(row);
  EXPECT_EQ(health.cells, levels.size());
  EXPECT_EQ(health.mismatched, 0u);
  EXPECT_EQ(health.faulty, 0u);
  EXPECT_DOUBLE_EQ(health.max_abs_shift_v, 0.0);
  EXPECT_THROW((void)array.row_readback(99), std::out_of_range);
  EXPECT_THROW((void)array.row_health(99), std::out_of_range);
}

TEST(RowReadback, AppliedDriftFlipsCellsAndRaisesShifts) {
  cam::McamArrayConfig config;
  config.level_map = fefet::LevelMap{2};
  cam::McamArray array{config};
  std::vector<std::vector<std::uint16_t>> rows(8, std::vector<std::uint16_t>(16));
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < rows[r].size(); ++c) {
      rows[r][c] = static_cast<std::uint16_t>((r + c) % 4);
    }
  }
  array.program(rows);
  const std::size_t perturbed = array.apply_drift(0.5, 7);
  EXPECT_EQ(perturbed, rows.size() * rows.front().size());
  std::size_t mismatched = 0;
  double max_shift = 0.0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(array.row_levels(r), rows[r]) << "drift must not rewrite targets";
    const cam::RowHealth health = array.row_health(r);
    mismatched += health.mismatched;
    max_shift = std::max(max_shift, health.max_abs_shift_v);
  }
  EXPECT_GT(mismatched, 0u) << "sigma=0.5 V should cross level windows";
  EXPECT_GT(max_shift, 0.0);
  EXPECT_EQ(array.apply_drift(0.0, 7), 0u) << "sigma <= 0 is a no-op";
}

TEST(RowReadback, StuckCellsAreFaultyNotDrifted) {
  cam::McamArrayConfig config;
  config.level_map = fefet::LevelMap{2};
  config.stuck_short_rate = 1.0;  // Every cell faulty.
  cam::McamArray array{config};
  const std::size_t row = array.add_row(std::vector<std::uint16_t>{1, 2, 3});
  const cam::RowHealth health = array.row_health(row);
  EXPECT_EQ(health.faulty, 3u);
  EXPECT_EQ(health.mismatched, 0u) << "faults are excluded from the drift comparison";
}

TEST(RowReadback, NoiselessTcamReadsBackItsTrits) {
  cam::TcamArray array{cam::TcamArrayConfig{}};
  const std::vector<cam::Trit> word{cam::Trit::kZero, cam::Trit::kOne,
                                    cam::Trit::kDontCare, cam::Trit::kOne};
  const std::size_t row = array.add_row(word);
  EXPECT_EQ(array.row_readback(row), word);
  EXPECT_EQ(array.row_health(row).mismatched, 0u);
  const std::size_t perturbed = array.apply_drift(0.6, 11);
  EXPECT_EQ(perturbed, word.size());
  EXPECT_GT(array.row_health(row).max_abs_shift_v, 0.0);
}

// --- drift_sigma spec key --------------------------------------------------

TEST(DriftSpec, DriftSigmaKeyParsesAndRejectsGarbage) {
  EXPECT_DOUBLE_EQ(search::parse_engine_spec("mcam:drift_sigma=0.25").config.drift_sigma,
                   0.25);
  EXPECT_DOUBLE_EQ(search::parse_engine_spec("mcam").config.drift_sigma, 0.0);
  EXPECT_THROW((void)search::parse_engine_spec("mcam:drift_sigma=x"),
               std::invalid_argument);
  try {
    (void)search::parse_engine_spec("mcam:definitely_unknown=1");
    FAIL() << "unknown key accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("drift_sigma"), std::string::npos)
        << "known-key list should name drift_sigma: " << e.what();
  }
}

// --- scrub_index over the engine shapes ------------------------------------

TEST(ScrubIndex, WalksEveryCamBankAndSkipsSoftware) {
  const Blobs blobs = make_blobs(8, 2, 6, 0.5, 17);
  search::EngineConfig config;
  config.num_features = 6;

  {
    auto software = search::make_index("euclidean", config);
    software->add(blobs.train, blobs.train_labels);
    EXPECT_TRUE(obs::health::scrub_index(*software).empty())
        << "software engines have no cells";
  }
  {
    auto mcam = search::make_index("mcam2", config);
    mcam->add(blobs.train, blobs.train_labels);
    const std::vector<BankHealth> banks = obs::health::scrub_index(*mcam);
    ASSERT_EQ(banks.size(), 1u);
    EXPECT_EQ(banks[0].bank, "mcam");
    EXPECT_EQ(banks[0].rows, blobs.train.size());
    EXPECT_GT(banks[0].cells, 0u);
    EXPECT_EQ(banks[0].mismatched_cells, 0u) << "clean programming scrubs clean";
    EXPECT_DOUBLE_EQ(banks[0].drift_score, 0.0);
  }
  {
    search::EngineConfig two_stage = config;
    two_stage.coarse_bits = 32;
    two_stage.probes = 2;
    two_stage.fine_spec = "mcam2";
    auto refine = search::make_index("refine", two_stage);
    refine->add(blobs.train, blobs.train_labels);
    const std::vector<BankHealth> banks = obs::health::scrub_index(*refine);
    EXPECT_NE(find_bank(banks, "coarse"), nullptr);
    EXPECT_NE(find_bank(banks, "fine/mcam"), nullptr);
  }
  {
    search::EngineConfig sharded = config;
    sharded.bank_rows = 8;
    auto index = search::make_index("sharded-mcam2", sharded);
    index->add(blobs.train, blobs.train_labels);
    const std::vector<BankHealth> banks = obs::health::scrub_index(*index);
    ASSERT_GE(banks.size(), 2u) << "8-row banks over 16 rows must shard";
    EXPECT_NE(find_bank(banks, "bank0/mcam"), nullptr);
    EXPECT_NE(find_bank(banks, "bank1/mcam"), nullptr);
  }
}

TEST(ScrubIndex, DriftSigmaSpecProgramsDriftedCells) {
  const Blobs blobs = make_blobs(12, 2, 6, 0.5, 23);
  search::EngineConfig config;
  config.num_features = 6;
  config.drift_sigma = 0.5;
  auto index = search::make_index("mcam2", config);
  index->add(blobs.train, blobs.train_labels);
  const std::vector<BankHealth> banks = obs::health::scrub_index(*index);
  ASSERT_EQ(banks.size(), 1u);
  EXPECT_GT(banks[0].mismatched_cells, 0u);
  EXPECT_GT(banks[0].drift_score, 0.0);
  EXPECT_GT(banks[0].max_abs_shift_v, 0.0);
}

TEST(ScrubIndex, InjectDriftPerturbsCamAndIgnoresSoftware) {
  const Blobs blobs = make_blobs(8, 2, 6, 0.5, 29);
  search::EngineConfig config;
  config.num_features = 6;
  auto mcam = search::make_index("mcam2", config);
  mcam->add(blobs.train, blobs.train_labels);
  EXPECT_EQ(total_mismatches(obs::health::scrub_index(*mcam)), 0u);
  const std::size_t perturbed = obs::health::inject_drift(*mcam, 0.5, 3);
  EXPECT_GT(perturbed, 0u);
  EXPECT_GT(total_mismatches(obs::health::scrub_index(*mcam)), 0u);

  auto software = search::make_index("euclidean", config);
  software->add(blobs.train, blobs.train_labels);
  EXPECT_EQ(obs::health::inject_drift(*software, 0.5, 3), 0u);
}

// --- Health is not persisted: restore cures drift, inspect reads 0 --------

TEST(HealthPersistence, SnapshotDropsDriftSigmaAndRestoreCuresDrift) {
  const Blobs blobs = make_blobs(8, 2, 6, 0.5, 41);
  search::EngineConfig config;
  config.num_features = 6;
  config.drift_sigma = 0.4;
  auto index = search::make_index("mcam2", config);
  index->add(blobs.train, blobs.train_labels);
  EXPECT_GT(total_mismatches(obs::health::scrub_index(*index)), 0u);

  const std::vector<std::uint8_t> blob = serve::save(*index, "mcam2", config);
  const serve::SnapshotInfo info = serve::inspect(blob);
  EXPECT_DOUBLE_EQ(info.config.drift_sigma, 0.0)
      << "drift_sigma is an operational knob, deliberately not persisted";

  auto restored = serve::load(blob);
  EXPECT_EQ(total_mismatches(obs::health::scrub_index(*restored)), 0u)
      << "restore reprograms the cells, curing drift";
}

// --- RecallCanary scoring against a hand-built ground truth ---------------

TEST(RecallCanary, DisabledCanaryNeverSamples) {
  obs::health::RecallCanary off{CanaryOptions{}, nullptr};
  EXPECT_FALSE(off.enabled());
  for (int i = 0; i < 16; ++i) EXPECT_FALSE(off.should_sample());
  const CanaryReport report = off.report();
  EXPECT_EQ(report.sampled, 0u);
  EXPECT_DOUBLE_EQ(report.recall_estimate, 1.0);
}

TEST(RecallCanary, ScoresRecallDisplacementAndMisses) {
  CanaryOptions options;
  options.sample_every = 1;
  options.window = 16;
  options.min_samples = 1;
  options.recall_alarm_below = 0.5;  // Keep the alarm quiet here.
  // Ground truth is always ids {0,1,2} for k=3.
  obs::health::RecallCanary canary{
      options,
      [](std::span<const float>, std::size_t, std::uint64_t)
          -> std::optional<std::vector<std::size_t>> {
        return std::vector<std::size_t>{0, 1, 2};
      }};
  ASSERT_TRUE(canary.enabled());
  EXPECT_TRUE(canary.should_sample());

  // Perfect agreement: recall 1, displacement 0, no misses.
  canary.enqueue({1.0F}, 3, {0, 1, 2}, 0);
  canary.drain();
  CanaryReport report = canary.report();
  EXPECT_EQ(report.executed, 1u);
  EXPECT_DOUBLE_EQ(report.recall_estimate, 1.0);
  EXPECT_DOUBLE_EQ(report.mean_rank_displacement, 0.0);
  EXPECT_EQ(report.coarse_misses, 0u);

  // Served {0,2}: id 1 missed entirely (rank = one past the served end,
  // 2), id 2 displaced by 1 -> recall 2/3, displacement (0+1+1)/3.
  canary.enqueue({1.0F}, 3, {0, 2}, 0);
  canary.drain();
  report = canary.report();
  EXPECT_EQ(report.executed, 2u);
  EXPECT_NEAR(report.recall_estimate, (1.0 + 2.0 / 3.0) / 2.0, 1e-12);
  EXPECT_NEAR(report.mean_rank_displacement, (0.0 + 2.0 / 3.0) / 2.0, 1e-12);
  EXPECT_EQ(report.coarse_misses, 1u);
  EXPECT_EQ(report.sampled, report.executed + report.stale + report.dropped);
}

TEST(RecallCanary, StaleAndDroppedAreCountedNotScored) {
  CanaryOptions options;
  options.sample_every = 1;
  options.min_samples = 1;
  obs::health::RecallCanary canary{
      options,
      [](std::span<const float>, std::size_t k, std::uint64_t generation)
          -> std::optional<std::vector<std::size_t>> {
        if (generation < 5) return std::nullopt;  // The index mutated.
        return std::vector<std::size_t>(k, 0);
      }};
  canary.enqueue({1.0F}, 1, {0}, 0);  // Stale.
  canary.enqueue({1.0F}, 1, {0}, 5);  // Executes.
  canary.drain();
  CanaryReport report = canary.report();
  EXPECT_EQ(report.stale, 1u);
  EXPECT_EQ(report.executed, 1u);
  EXPECT_DOUBLE_EQ(report.recall_estimate, 1.0) << "stale samples never score";

  canary.stop();
  canary.enqueue({1.0F}, 1, {0}, 5);  // Dropped: the canary is stopped.
  report = canary.report();
  EXPECT_EQ(report.dropped, 1u);
  EXPECT_EQ(report.sampled, report.executed + report.stale + report.dropped);
}

TEST(RecallCanary, RecallAlarmIsEdgeTriggeredAndRecovers) {
  CanaryOptions options;
  options.sample_every = 1;
  options.window = 4;  // Small window so recovery flushes the bad samples.
  options.min_samples = 2;
  options.recall_alarm_below = 0.9;
  obs::health::RecallCanary canary{
      options,
      [](std::span<const float>, std::size_t, std::uint64_t)
          -> std::optional<std::vector<std::size_t>> {
        return std::vector<std::size_t>{0};
      }};
  // One bad sample is below min_samples: no alarm yet.
  canary.enqueue({1.0F}, 1, {9}, 0);
  canary.drain();
  EXPECT_EQ(canary.report().alarms, 0u);
  // Second bad sample crosses min_samples with recall 0: one edge.
  canary.enqueue({1.0F}, 1, {9}, 0);
  canary.drain();
  CanaryReport report = canary.report();
  EXPECT_EQ(report.alarms, 1u);
  EXPECT_TRUE(report.alarm_active);
  // Staying bad does not re-fire the edge.
  canary.enqueue({1.0F}, 1, {9}, 0);
  canary.drain();
  EXPECT_EQ(canary.report().alarms, 1u);
  // Four good samples evict the window: the alarm clears.
  for (int i = 0; i < 4; ++i) canary.enqueue({1.0F}, 1, {0}, 0);
  canary.drain();
  report = canary.report();
  EXPECT_FALSE(report.alarm_active);
  EXPECT_DOUBLE_EQ(report.recall_estimate, 1.0);
  EXPECT_EQ(report.alarms, 1u) << "clearing is not an edge";
}

// --- HealthMonitor alarm edges over a synthetic scrub ----------------------

TEST(HealthMonitor, DriftAlarmEdgesOnScoreThreshold) {
  double score = 0.0;
  MonitorOptions options;
  options.drift_alarm_above = 0.02;
  obs::health::HealthMonitor monitor{options, [&score] {
                                      BankHealth bank;
                                      bank.bank = "mcam";
                                      bank.rows = 1;
                                      bank.cells = 100;
                                      bank.mismatched_cells =
                                          static_cast<std::size_t>(score * 100.0);
                                      bank.drift_score = score;
                                      return std::vector<BankHealth>{bank};
                                    }};
  (void)monitor.scrub_now();
  HealthReport report = monitor.report();
  EXPECT_EQ(report.scrubs, 1u);
  EXPECT_EQ(report.drift_alarms, 0u);
  EXPECT_FALSE(report.drift_alarm_active);

  score = 0.5;
  (void)monitor.scrub_now();
  (void)monitor.scrub_now();  // Still over threshold: no second edge.
  report = monitor.report();
  EXPECT_EQ(report.scrubs, 3u);
  EXPECT_EQ(report.drift_alarms, 1u);
  EXPECT_TRUE(report.drift_alarm_active);
  ASSERT_EQ(report.banks.size(), 1u);
  EXPECT_DOUBLE_EQ(report.banks[0].drift_score, 0.5);

  score = 0.0;
  (void)monitor.scrub_now();
  report = monitor.report();
  EXPECT_EQ(report.drift_alarms, 1u);
  EXPECT_FALSE(report.drift_alarm_active);
}

TEST(HealthMonitor, PeriodicWorkerScrubsWithoutExplicitCalls) {
  MonitorOptions options;
  options.scrub_period = std::chrono::milliseconds{1};
  obs::health::HealthMonitor monitor{options, [] { return std::vector<BankHealth>{}; }};
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{5};
  while (monitor.report().scrubs == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  monitor.stop();
  EXPECT_GT(monitor.report().scrubs, 0u);
}

// --- End-to-end acceptance: drift detection through QueryService -----------

TEST(HealthEndToEnd, InjectedDriftDropsRecallAndFiresAlarms) {
  const Blobs blobs = make_blobs(24, 3, 8, 0.5, 67);
  search::EngineConfig config;
  config.num_features = 8;
  config.coarse_bits = 64;
  config.probes = 4;
  config.candidate_factor = 8;
  config.fine_spec = "euclidean";  // Exact fine stage: drift hits only coarse.
  auto index = search::make_index("refine", config);
  index->add(blobs.train, blobs.train_labels);

  serve::QueryServiceConfig service_config;
  service_config.workers = 1;
  service_config.cache_capacity = 0;  // Every query reaches the engine.
  service_config.canary.sample_every = 1;
  service_config.canary.window = 64;
  service_config.canary.min_samples = 4;
  // The alarm line sits below the clean operating point (~0.9 recall on
  // this workload) and well above what a drifted coarse stage delivers,
  // so clean stays quiet and drift must trip it.
  service_config.canary.recall_alarm_below = 0.75;
  serve::QueryService service{*index, service_config};

  // Every query is sampled into a queue of queue_capacity slots. Drain
  // after each burst that could fill it, so a canary worker that falls
  // behind on a loaded machine drops nothing and every count is exact.
  const auto serve_queries = [&] {
    std::size_t since_drain = 0;
    for (const auto& q : blobs.queries) {
      ASSERT_EQ(service.query_one(q, 3).status, serve::RequestStatus::kOk);
      if (++since_drain == service_config.canary.queue_capacity) {
        service.canary_drain();
        since_drain = 0;
      }
    }
    service.canary_drain();
  };

  // Clean phase: all quiet.
  ASSERT_NO_FATAL_FAILURE(serve_queries());
  const CanaryReport clean = service.canary_report();
  EXPECT_EQ(clean.executed, blobs.queries.size());
  EXPECT_GE(clean.recall_estimate, 0.85) << "clean coarse stage should nominate well";
  EXPECT_EQ(clean.alarms, 0u);
  (void)service.scrub_health();
  const HealthReport clean_health = service.health_report();
  EXPECT_EQ(clean_health.drift_alarms, 0u);
  EXPECT_EQ(total_mismatches(clean_health.banks), 0u);

  // Drift the coarse TCAM mid-run; detection must follow within one scrub
  // and one canary window.
  ASSERT_GT(service.inject_drift(0.6, 13), 0u);
  (void)service.scrub_health();
  const HealthReport drifted_health = service.health_report();
  EXPECT_GE(drifted_health.drift_alarms, 1u);
  EXPECT_TRUE(drifted_health.drift_alarm_active);
  EXPECT_GT(total_mismatches(drifted_health.banks), 0u);

  for (int round = 0; round < 3; ++round) {
    ASSERT_NO_FATAL_FAILURE(serve_queries());
  }
  const CanaryReport drifted = service.canary_report();
  EXPECT_LT(drifted.recall_estimate, service_config.canary.recall_alarm_below)
      << "a sigma=0.6 V coarse drift must degrade nomination";
  EXPECT_GT(drifted.coarse_misses, 0u);
  EXPECT_EQ(drifted.sampled, drifted.executed + drifted.stale + drifted.dropped);
  EXPECT_GE(drifted.alarms, 1u);
  EXPECT_TRUE(drifted.alarm_active);

  // The SLO instruments made it into the global registry.
  bool recall_gauge = false;
  bool alarm_counter = false;
  const obs::MetricsSnapshot snapshot = obs::snapshot();
  for (const obs::GaugeSample& sample : snapshot.gauges) {
    if (sample.name == "mcam_health_recall_estimate") recall_gauge = true;
  }
  for (const obs::CounterSample& sample : snapshot.counters) {
    if (sample.name == "mcam_health_canary_total") alarm_counter = true;
  }
  EXPECT_TRUE(recall_gauge);
  EXPECT_TRUE(alarm_counter);

  const std::string json = obs::to_json(service.health_report());
  EXPECT_NE(json.find("\"recall_estimate\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"drift_alarms\":"), std::string::npos) << json;
}

TEST(HealthEndToEnd, CollectionManagerCanariesAndScrubsPerCollection) {
  const Blobs blobs = make_blobs(10, 2, 6, 0.5, 71);
  store::ManagerConfig config;
  config.canary.sample_every = 1;
  config.canary.min_samples = 1;
  store::CollectionManager manager{config};
  manager.create_collection("health_c1", "mcam2");
  (void)manager.add("health_c1", blobs.train, blobs.train_labels);
  for (const auto& q : blobs.queries) {
    ASSERT_EQ(manager.query_one("health_c1", q, 2).status, serve::RequestStatus::kOk);
  }
  manager.canary_drain("health_c1");
  const CanaryReport report = manager.canary_report("health_c1");
  EXPECT_EQ(report.executed, blobs.queries.size());
  EXPECT_EQ(report.sampled, report.executed + report.stale + report.dropped);

  EXPECT_EQ(total_mismatches(manager.scrub_collection("health_c1")), 0u);
  ASSERT_GT(manager.inject_drift("health_c1", 0.5, 5), 0u);
  EXPECT_GT(total_mismatches(manager.scrub_collection("health_c1")), 0u);
  EXPECT_GE(manager.health_report("health_c1").drift_alarms, 1u);

  // Mutating after injection marks in-flight canaries stale, never wrong:
  // the generation bump from inject_drift means a pre-drift sample would
  // not score against post-drift ground truth.
  EXPECT_TRUE(manager.drop_collection("health_c1"));
  EXPECT_THROW((void)manager.canary_report("health_c1"), std::invalid_argument);
}

}  // namespace
}  // namespace mcam
