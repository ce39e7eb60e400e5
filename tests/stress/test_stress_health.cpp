// Health-monitoring stress: canary re-execution and device scrubbing
// racing live queries, adds, erases, and bank compaction. Like the rest
// of the stress suite, the sharp assertor is TSan (the CI job runs this
// binary with MCAM_STRESS_LONG=1); the inline assertions pin the two
// logical invariants that a race would corrupt silently:
//   * canary accounting balances at quiescence
//     (sampled == executed + stale + dropped, estimates in range);
//   * canary ground truth NEVER observes a tombstoned row - erased ids
//     must not appear in any exact result, no matter how the re-execution
//     interleaves with the eraser (query_subset's contract under the
//     owner's lock discipline).
#include "obs/health/health.hpp"
#include "search/batch.hpp"
#include "search/factory.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <future>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

namespace mcam {
namespace {

// --- Profile knobs (the test_stress_concurrency contract) -------------------

bool long_profile() {
  static const bool value = [] {
    const char* raw = std::getenv("MCAM_STRESS_LONG");
    return raw != nullptr && raw[0] != '\0' && raw[0] != '0';
  }();
  return value;
}

std::size_t iterations(std::size_t base) { return long_profile() ? base * 10 : base; }

std::size_t stress_threads() {
  static const std::size_t value = [] {
    const char* raw = std::getenv("MCAM_STRESS_THREADS");
    if (raw != nullptr) {
      const long parsed = std::strtol(raw, nullptr, 10);
      if (parsed >= 1) return static_cast<std::size_t>(parsed);
    }
    return std::max<std::size_t>(
        std::size_t{4}, search::resolve_worker_count(0, std::thread::hardware_concurrency()));
  }();
  return value;
}

void run_torture(std::size_t count, const std::function<void(std::size_t)>& body) {
  ASSERT_GE(count, 1u);
  if (count == 1) {
    body(0);
    return;
  }
  std::barrier gate(static_cast<std::ptrdiff_t>(count));
  std::vector<std::thread> threads;
  threads.reserve(count);
  for (std::size_t t = 0; t < count; ++t) {
    threads.emplace_back([&, t] {
      gate.arrive_and_wait();
      body(t);
    });
  }
  for (std::thread& thread : threads) thread.join();
}

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
      v[i] = static_cast<float>(rng.normal(cls * 1.1 + (i % 3) * 0.3, 0.5));
    }
    return v;
  };
  for (std::size_t r = 0; r < n; ++r) {
    const int cls = static_cast<int>(r % 3);
    data.rows.push_back(sample(cls));
    data.labels.push_back(cls);
  }
  for (std::size_t q = 0; q < num_queries; ++q) {
    data.queries.push_back(sample(static_cast<int>(q % 3)));
  }
  return data;
}

// --- Canary riding the full QueryService under mutation ---------------------

TEST(StressHealth, CanaryAccountingBalancesUnderQueryMutateTorture) {
  const Data data = make_data(64, 8, 8, 91);
  const auto index = search::make_index("cosine");
  index->calibrate(data.rows);
  index->add(data.rows, data.labels);

  serve::QueryServiceConfig config;
  config.workers = 2;
  config.queue_capacity = 32;
  config.cache_capacity = 0;  // Every completion reaches the canary ticket.
  config.canary.sample_every = 1;
  config.canary.window = 32;
  config.canary.queue_capacity = 16;  // Small: the drop path joins the torture.
  serve::QueryService service(*index, config);

  const std::size_t submitters = stress_threads();
  const std::size_t iters = iterations(60);
  std::atomic<std::size_t> ok{0};

  // Thread 0 mutates through the service (exclusive lock + generation
  // bumps -> in-flight canaries go stale); the rest submit queries whose
  // completions feed the canary.
  run_torture(submitters + 1, [&](std::size_t t) {
    if (t == 0) {
      std::size_t next_erase = 0;
      for (std::size_t i = 0; i < iters / 4; ++i) {
        const std::vector<std::vector<float>> row{data.rows[i % data.rows.size()]};
        const std::vector<int> label{data.labels[i % data.labels.size()]};
        service.add(row, label);
        if (i % 2 == 0) service.erase(next_erase++);
      }
      return;
    }
    std::vector<std::future<serve::QueryResponse>> pending;
    for (std::size_t i = 0; i < iters; ++i) {
      pending.push_back(
          service.submit(data.queries[(t + i) % data.queries.size()], 1 + i % 3));
      if (pending.size() >= 8) {
        for (auto& f : pending) {
          if (f.get().status == serve::RequestStatus::kOk) ++ok;
        }
        pending.clear();
      }
    }
    for (auto& f : pending) {
      if (f.get().status == serve::RequestStatus::kOk) ++ok;
    }
  });

  service.canary_drain();
  const obs::health::CanaryReport report = service.canary_report();
  EXPECT_EQ(report.sampled, report.executed + report.stale + report.dropped)
      << "canary accounting must balance at quiescence";
  EXPECT_LE(report.sampled, ok.load()) << "only completed queries are sampled";
  EXPECT_GT(report.sampled, 0u);
  EXPECT_GE(report.recall_estimate, 0.0);
  EXPECT_LE(report.recall_estimate, 1.0);
  EXPECT_GE(report.mean_rank_displacement, 0.0);
  service.stop();
  // Enqueue after stop is a counted drop, never a hang or a crash.
  const obs::health::CanaryReport stopped = service.canary_report();
  EXPECT_EQ(stopped.sampled, stopped.executed + stopped.stale + stopped.dropped);
}

// --- Ground truth vs tombstones over a sharded index ------------------------

TEST(StressHealth, CanaryGroundTruthNeverObservesTombstonedRows) {
  const Data data = make_data(96, 8, 16, 101);
  search::EngineConfig config;
  config.bank_rows = 16;
  const auto index = search::make_index("sharded-cosine", config);
  index->calibrate(data.rows);
  index->add(data.rows, data.labels);

  // The owner's lock discipline from the serving stack: shared for canary
  // ground truth and scrubs, exclusive for erase + generation bump.
  std::shared_mutex index_mutex;  // lock-order: leaf (no lock acquired under it).
  std::atomic<std::uint64_t> generation{0};
  std::set<std::size_t> erased;  // Guarded by index_mutex.
  std::atomic<std::size_t> tombstones_seen{0};
  std::atomic<std::size_t> executed_checks{0};

  obs::health::CanaryOptions options;
  options.sample_every = 1;
  options.window = 64;
  options.queue_capacity = 256;
  obs::health::RecallCanary canary{
      options,
      [&](std::span<const float> query, std::size_t k, std::uint64_t task_generation)
          -> std::optional<std::vector<std::size_t>> {
        std::shared_lock lock(index_mutex);
        if (task_generation != generation.load()) {
          return std::nullopt;  // Stale: the eraser moved on.
        }
        std::vector<std::size_t> ids(data.rows.size());
        std::iota(ids.begin(), ids.end(), std::size_t{0});
        const search::QueryResult exact = index->query_subset(query, ids, k);
        ++executed_checks;
        for (const search::Neighbor& neighbor : exact.neighbors) {
          if (erased.count(neighbor.index) != 0) ++tombstones_seen;
        }
        std::vector<std::size_t> out;
        out.reserve(exact.neighbors.size());
        for (const search::Neighbor& neighbor : exact.neighbors) {
          out.push_back(neighbor.index);
        }
        return out;
      }};

  const std::size_t queriers = stress_threads();
  const std::size_t iters = iterations(40);

  run_torture(queriers + 1, [&](std::size_t t) {
    if (t == 0) {
      // Hold the first erase until one canary has run live, so the
      // tombstone check cannot pass vacuously. Without this the eraser
      // could finish before the canary thread ran at all, every check went
      // stale, and the test failed about one run in eight.
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{10};
      while (executed_checks.load() == 0 && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      // Erase across bank boundaries, driving compaction; each erase is a
      // generation bump exactly like QueryService::erase.
      for (std::size_t i = 0; i < 48; ++i) {
        std::unique_lock lock(index_mutex);
        if (index->erase(i * 2 + 1)) {
          erased.insert(i * 2 + 1);
          generation.fetch_add(1);
        }
      }
      return;
    }
    for (std::size_t i = 0; i < iters; ++i) {
      const std::vector<float>& query = data.queries[(t + i) % data.queries.size()];
      std::vector<std::size_t> served;
      std::uint64_t served_generation = 0;
      {
        std::shared_lock lock(index_mutex);
        served_generation = generation.load();
        const search::QueryResult result = index->query_one(query, 3);
        for (const search::Neighbor& neighbor : result.neighbors) {
          served.push_back(neighbor.index);
        }
      }
      if (canary.should_sample()) {
        canary.enqueue(query, 3, std::move(served), served_generation);
      }
    }
  });

  canary.drain();
  canary.stop();
  const obs::health::CanaryReport report = canary.report();
  EXPECT_EQ(report.sampled, report.executed + report.stale + report.dropped);
  EXPECT_GT(executed_checks.load(), 0u) << "some canaries must have executed live";
  EXPECT_EQ(tombstones_seen.load(), 0u)
      << "ground truth observed erased rows - query_subset leaked a tombstone";
}

// --- Scrubbing racing add/erase/compaction ----------------------------------

TEST(StressHealth, ScrubRacesAddEraseCompactionOnShardedBanks) {
  const Data data = make_data(64, 8, 8, 111);
  search::EngineConfig config;
  config.bank_rows = 16;
  const auto index = search::make_index("sharded-mcam2", config);
  index->calibrate(data.rows);
  index->add(data.rows, data.labels);

  std::shared_mutex index_mutex;  // lock-order: leaf (no lock acquired under it).

  // A periodic monitor sweeps in the background through the same shared
  // lock while torture threads scrub synchronously and one thread
  // mutates; every published bank must be internally consistent (a torn
  // row read would break these inequalities long before TSan flags it).
  obs::health::MonitorOptions monitor_options;
  monitor_options.scrub_period = std::chrono::milliseconds{1};
  obs::health::HealthMonitor monitor{monitor_options, [&] {
                                       std::shared_lock lock(index_mutex);
                                       return obs::health::scrub_index(*index);
                                     }};

  const auto check_banks = [](const std::vector<obs::health::BankHealth>& banks) {
    for (const obs::health::BankHealth& bank : banks) {
      ASSERT_FALSE(bank.bank.empty());
      ASSERT_LE(bank.mismatched_cells + bank.faulty_cells, bank.cells);
      ASSERT_GE(bank.drift_score, 0.0);
      ASSERT_LE(bank.drift_score, 1.0);
      ASSERT_GE(bank.max_abs_shift_v, 0.0);
      ASSERT_GE(bank.mean_abs_shift_v, 0.0);
      ASSERT_LE(bank.mean_abs_shift_v, bank.max_abs_shift_v + 1e-12);
    }
  };

  const std::size_t scrubbers = stress_threads();
  const std::size_t iters = iterations(20);

  run_torture(scrubbers + 1, [&](std::size_t t) {
    if (t == 0) {
      for (std::size_t i = 0; i < iters; ++i) {
        std::unique_lock lock(index_mutex);
        const std::vector<std::vector<float>> row{data.rows[i % data.rows.size()]};
        const std::vector<int> label{data.labels[i % data.labels.size()]};
        index->add(row, label);
        // Drives bank compaction cycles. The modulo keeps the id among
        // those assigned so far (data.rows.size() + i + 1): erasing an id
        // never assigned throws, which the long profile's 200 iterations
        // used to reach at i = 32.
        (void)index->erase((i * 3 + 1) % (data.rows.size() + i + 1));
      }
      return;
    }
    for (std::size_t i = 0; i < iters; ++i) {
      std::vector<obs::health::BankHealth> banks;
      {
        std::shared_lock lock(index_mutex);
        banks = obs::health::scrub_index(*index);
      }
      check_banks(banks);
    }
  });

  monitor.stop();
  const obs::health::HealthReport report = monitor.report();
  check_banks(report.banks);
  EXPECT_EQ(report.drift_alarms, 0u) << "no drift was injected";
  // Final sweep at quiescence: every bank clean and fully live.
  std::size_t live_rows = 0;
  for (const obs::health::BankHealth& bank : obs::health::scrub_index(*index)) {
    EXPECT_EQ(bank.mismatched_cells, 0u);
    live_rows += bank.rows;
  }
  EXPECT_EQ(live_rows, index->size());
}

}  // namespace
}  // namespace mcam
