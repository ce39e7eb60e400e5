// Race-hunting stress suite: barrier-synchronized multi-thread tortures
// over every concurrent subsystem, designed to maximize the interleavings
// ThreadSanitizer can observe. The assertions here are deliberately
// coarse (statuses legal, counters balance at quiescence, final state
// deterministic) - the sharp assertor is TSan itself, which the CI job
// runs over this whole binary with MCAM_STRESS_LONG=1.
//
// Profiles: the default (short) profile bounds every case to seconds so
// plain CI and local ctest stay fast; MCAM_STRESS_LONG=1 multiplies the
// iteration counts for the TSan job. MCAM_STRESS_THREADS overrides the
// torture width; at 1 every case degrades to a deterministic
// single-thread run that still executes all of its assertions (nothing is
// skipped on 1-core hosts - see the ResolveWorkerCount cases pinning that
// contract).
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "search/batch.hpp"
#include "search/factory.hpp"
#include "search/sharded.hpp"
#include "serve/service.hpp"
#include "store/manager.hpp"
#include "util/rng.hpp"
#include "util/tsan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace mcam {
namespace {

// --- Profile knobs ----------------------------------------------------------

bool long_profile() {
  static const bool value = [] {
    const char* raw = std::getenv("MCAM_STRESS_LONG");
    return raw != nullptr && raw[0] != '\0' && raw[0] != '0';
  }();
  return value;
}

/// Iteration count for one torture: `base` in the short profile, 10x under
/// MCAM_STRESS_LONG=1 (the TSan CI job's profile).
std::size_t iterations(std::size_t base) { return long_profile() ? base * 10 : base; }

/// Torture width. Deliberately more threads than cores - the point is
/// interleavings, not throughput - resolved through the same
/// resolve_worker_count contract the production pools use, so a 1-core
/// host still gets >= 2 threads unless MCAM_STRESS_THREADS=1 explicitly
/// asks for the deterministic single-thread degrade.
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

/// Runs `body(thread_index)` on `count` threads released together through
/// a barrier; with count == 1 the body runs inline on the calling thread,
/// so single-thread runs stay deterministic AND still assert.
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

// --- Shared fixtures --------------------------------------------------------

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

// --- resolve_worker_count edge cases (the 1-core degrade contract) ----------

TEST(StressConfig, ResolveWorkerCountEdgeCases) {
  using search::resolve_worker_count;
  // Explicit requests always win, even absurd ones on 1-core hosts.
  EXPECT_EQ(resolve_worker_count(3, 1), 3u);
  EXPECT_EQ(resolve_worker_count(7, 0), 7u);
  EXPECT_EQ(resolve_worker_count(1, 64), 1u);
  // The default clamps to 1 when the host reports <= 1 core (or cannot
  // report at all) - never 0, so pools never end up threadless.
  EXPECT_EQ(resolve_worker_count(0, 0), 1u);
  EXPECT_EQ(resolve_worker_count(0, 1), 1u);
  EXPECT_EQ(resolve_worker_count(0, 8), 8u);
  EXPECT_GE(search::default_worker_count(), 1u);
}

TEST(StressConfig, TortureWidthNeverZeroAndSingleThreadStillAsserts) {
  EXPECT_GE(stress_threads(), 1u);
  // The degrade contract: a width-1 torture runs the body inline exactly
  // once - assertions execute rather than being skipped.
  std::size_t runs = 0;
  run_torture(1, [&](std::size_t t) {
    EXPECT_EQ(t, 0u);
    ++runs;
  });
  EXPECT_EQ(runs, 1u);
}

TEST(StressConfig, BatchExecutorSingleThreadDegradeIsBitIdentical) {
  // On 1-core hosts the executor resolves to inline execution; the answer
  // must not depend on which path ran.
  const Data data = make_data(48, 8, 16, 11);
  const auto index = search::make_index("cosine");
  index->calibrate(data.rows);
  index->add(data.rows, data.labels);

  search::BatchOptions sequential;
  sequential.num_threads = 1;
  search::BatchOptions parallel;
  parallel.num_threads = 4;
  parallel.min_shard_size = 1;
  const auto a = search::BatchExecutor(sequential).run(*index, data.queries, 3);
  const auto b = search::BatchExecutor(parallel).run(*index, data.queries, 3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].neighbors.size(), b[i].neighbors.size());
    EXPECT_EQ(a[i].label, b[i].label);
    for (std::size_t j = 0; j < a[i].neighbors.size(); ++j) {
      EXPECT_EQ(a[i].neighbors[j].index, b[i].neighbors[j].index);
      EXPECT_EQ(a[i].neighbors[j].distance, b[i].neighbors[j].distance);
    }
  }
}

// --- QueryService tortures --------------------------------------------------

TEST(StressQueryService, SubmitMutateDrainTorture) {
  const Data data = make_data(64, 8, 8, 21);
  const auto index = search::make_index("cosine");
  index->calibrate(data.rows);
  index->add(data.rows, data.labels);

  serve::QueryServiceConfig config;
  config.workers = 2;
  config.queue_capacity = 32;
  config.cache_capacity = 16;
  config.trace_sample = 1;  // Always-on tracing: span recording joins the torture.
  serve::QueryService service(*index, config);

  const std::size_t submitters = stress_threads();
  const std::size_t iters = iterations(60);
  std::atomic<std::size_t> ok{0};
  std::atomic<std::size_t> rejected{0};

  // One mutator rides along inside the torture (thread 0): adds then
  // erases rows through the service, exercising exclusive-lock + cache
  // invalidation against the submit/execute shared paths.
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
          service.submit(data.queries[(t + i) % data.queries.size()], 1 + i % 5));
      if (pending.size() >= 8) {
        for (auto& f : pending) {
          const serve::QueryResponse r = f.get();
          if (r.status == serve::RequestStatus::kOk) {
            EXPECT_FALSE(r.result.neighbors.empty());
            ++ok;
          } else {
            ASSERT_EQ(r.status, serve::RequestStatus::kRejected);
            ++rejected;
          }
        }
        pending.clear();
      }
    }
    for (auto& f : pending) {
      const serve::QueryResponse r = f.get();
      if (r.status == serve::RequestStatus::kOk) {
        ++ok;
      } else {
        ++rejected;
      }
    }
  });

  service.stop();
  const serve::ServiceStats stats = service.stats();
  // Quiescence balance: everything accepted was drained to a terminal
  // outcome, nothing is left queued, rejections were reported not dropped.
  EXPECT_EQ(stats.accepted, stats.completed + stats.failed);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.rejected, rejected.load());
  EXPECT_EQ(ok.load() + rejected.load(), submitters * iters);
  // Post-stop submits answer kShutdown, never hang.
  const serve::QueryResponse after = service.query_one(data.queries[0], 1);
  EXPECT_EQ(after.status, serve::RequestStatus::kShutdown);
}

TEST(StressQueryService, StopRacesInFlightSubmits) {
  const Data data = make_data(32, 8, 4, 31);
  const std::size_t rounds = iterations(6);
  for (std::size_t round = 0; round < rounds; ++round) {
    const auto index = search::make_index("cosine");
    index->calibrate(data.rows);
    index->add(data.rows, data.labels);
    serve::QueryServiceConfig config;
    config.workers = 2;
    config.queue_capacity = 16;
    auto service = std::make_unique<serve::QueryService>(*index, config);

    // Thread 0 stops the service while the rest are mid-submit: every
    // future must still resolve to a legal terminal status.
    run_torture(stress_threads() + 1, [&](std::size_t t) {
      if (t == 0) {
        service->stop();
        return;
      }
      for (std::size_t i = 0; i < 20; ++i) {
        const serve::QueryResponse r =
            service->query_one(data.queries[i % data.queries.size()], 2);
        ASSERT_TRUE(r.status == serve::RequestStatus::kOk ||
                    r.status == serve::RequestStatus::kRejected ||
                    r.status == serve::RequestStatus::kShutdown)
            << static_cast<int>(r.status);
      }
    });
    const serve::ServiceStats stats = service->stats();
    EXPECT_EQ(stats.accepted, stats.completed + stats.failed);
    EXPECT_EQ(stats.queue_depth, 0u);
  }
}

// --- CollectionManager tortures ---------------------------------------------

TEST(StressCollectionManager, MultiTenantTorture) {
  const Data data = make_data(48, 8, 8, 41);
  store::ManagerConfig config;
  config.workers = 2;
  config.queue_capacity = 64;
  config.collection_queue_cap = 32;
  config.trace_sample = 1;
  store::CollectionManager manager(config);

  const std::vector<std::string> tenants{"alpha", "beta", "gamma"};
  std::vector<std::vector<std::string>> tags(data.rows.size());
  for (std::size_t r = 0; r < tags.size(); ++r) {
    tags[r] = {r % 2 == 0 ? "team=red" : "team=blue"};
  }
  for (const std::string& tenant : tenants) {
    manager.create_collection(tenant, "cosine");
    manager.calibrate(tenant, data.rows);
    manager.add(tenant, data.rows, data.labels, tags);
  }

  const std::filesystem::path save_dir =
      std::filesystem::temp_directory_path() / "mcam_stress_manager_save";
  std::filesystem::remove_all(save_dir);

  const std::size_t iters = iterations(50);
  std::atomic<std::size_t> ok{0};
  std::atomic<std::size_t> rejected{0};
  std::atomic<std::size_t> shutdown{0};

  // Threads 0..2 are the antagonists: a mutator (add/erase/expire), a
  // saver (whole-fleet snapshots racing queries), and a churner
  // (drop + recreate one tenant so in-flight queries resolve kShutdown).
  run_torture(stress_threads() + 3, [&](std::size_t t) {
    if (t == 0) {
      for (std::size_t i = 0; i < iters / 4; ++i) {
        const std::string& tenant = tenants[i % 2];  // Not the churn tenant.
        const std::vector<std::vector<float>> row{data.rows[i % data.rows.size()]};
        const std::vector<int> label{data.labels[i % data.labels.size()]};
        manager.add(tenant, row, label);
        manager.erase(tenant, i % data.rows.size());
        if (i % 8 == 0) manager.expire_all(i);
      }
      return;
    }
    if (t == 1) {
      for (std::size_t i = 0; i < iterations(3); ++i) {
        try {
          manager.save(save_dir.string());
        } catch (const std::invalid_argument&) {
          // The churner dropped a collection mid-save; legal and reported.
        }
      }
      return;
    }
    if (t == 2) {
      for (std::size_t i = 0; i < iterations(8); ++i) {
        manager.drop_collection("gamma");
        manager.create_collection("gamma", "cosine");
        manager.calibrate("gamma", data.rows);
        manager.add("gamma", data.rows, data.labels);
      }
      return;
    }
    for (std::size_t i = 0; i < iters; ++i) {
      const std::string& tenant = tenants[(t + i) % tenants.size()];
      store::Predicate predicate;
      if (i % 3 == 0) predicate = store::Predicate::tag("team=red");
      try {
        const store::StoreResponse r = manager.query_one(
            tenant, data.queries[i % data.queries.size()], 1 + i % 4, predicate);
        switch (r.status) {
          case serve::RequestStatus::kOk:
            ++ok;
            break;
          case serve::RequestStatus::kRejected:
            ++rejected;
            break;
          case serve::RequestStatus::kShutdown:
            ++shutdown;
            break;
          case serve::RequestStatus::kFailed:
            // Legal failures only: the zero-match predicate throw (the
            // mutator can erase every "team=red" row and the churner
            // recreates gamma untagged) and the empty-index throw (a query
            // lands in the churner's window between create_collection and
            // add, when gamma exists but holds no rows yet). Any other
            // failure is a real bug.
            EXPECT_TRUE(r.error.find("no live row matches") != std::string::npos ||
                        r.error.find("before add") != std::string::npos)
                << "unexpected kFailed: " << r.error;
            break;
        }
      } catch (const std::invalid_argument&) {
        // Unknown collection: the churner's drop raced our submit.
      }
    }
  });

  EXPECT_GT(ok.load(), 0u);
  for (const std::string& tenant : manager.collection_names()) {
    const serve::ServiceStats stats = manager.stats(tenant);
    EXPECT_EQ(stats.accepted, stats.completed + stats.failed) << tenant;
    EXPECT_EQ(stats.queue_depth, 0u) << tenant;
  }
  manager.stop();
  std::filesystem::remove_all(save_dir);
}

TEST(StressCollectionManager, ResolvedFutureExcludesTaskFromQueueDepth) {
  // Regression for the PR 8 race: the worker decremented the tenant's
  // in-flight counter AFTER fulfilling the promise, so a caller observing
  // its future resolved could still see the task in stats().queue_depth.
  const Data data = make_data(16, 4, 1, 51);
  store::ManagerConfig config;
  config.workers = 1;
  store::CollectionManager manager(config);
  manager.create_collection("only", "cosine");
  manager.calibrate("only", data.rows);
  manager.add("only", data.rows, data.labels);

  for (std::size_t i = 0; i < iterations(200); ++i) {
    const store::StoreResponse r = manager.query_one("only", data.queries[0], 1);
    ASSERT_EQ(r.status, serve::RequestStatus::kOk);
    // The promise resolved, so the happens-before chain through
    // future.get() must make the decrement visible here.
    EXPECT_EQ(manager.stats("only").queue_depth, 0u) << "iteration " << i;
  }
}

// --- Sharded fan-out with concurrent compaction -----------------------------

TEST(StressSharded, FanoutQueriesRaceCompaction) {
  const Data data = make_data(96, 8, 8, 61);
  search::EngineConfig config;
  config.bank_rows = 16;

  const auto build = [&] {
    auto index = search::make_index("sharded-cosine", config);
    index->calibrate(data.rows);
    index->add(data.rows, data.labels);
    return index;
  };
  const auto index = build();

  // The NnIndex contract makes mutation racing query undefined; the
  // production stack serializes through QueryService's shared_mutex. The
  // torture reproduces exactly that discipline so TSan checks that the
  // lock is SUFFICIENT for the bank fan-out + compaction internals -
  // reader threads walking every bank under the shared lock, banks
  // rebuilt in place under the exclusive one.
  std::shared_mutex index_mutex;  // lock-order: leaf (no lock acquired under it).

  // Single writer => the mutation history is deterministic; record it so
  // the final state can be replayed and compared bit-identically.
  std::vector<std::size_t> erased;
  const std::size_t readers = stress_threads();
  const std::size_t iters = iterations(40);

  run_torture(readers + 1, [&](std::size_t t) {
    if (t == 0) {
      // Erase two whole banks' worth of rows plus stragglers: drives the
      // dead fraction past the compaction threshold repeatedly.
      for (std::size_t i = 0; i < 40; ++i) {
        std::unique_lock lock(index_mutex);
        if (index->erase(i)) erased.push_back(i);
      }
      return;
    }
    for (std::size_t i = 0; i < iters; ++i) {
      std::shared_lock lock(index_mutex);
      const auto result =
          index->query_one(data.queries[(t + i) % data.queries.size()], 3);
      ASSERT_FALSE(result.neighbors.empty());
      for (const auto& neighbor : result.neighbors) {
        ASSERT_LT(neighbor.index, data.rows.size());
      }
    }
  });

  // Replay the recorded history on a fresh index: the torture's final
  // answers must be bit-identical (cosine is noise-free/deterministic).
  const auto replay = build();
  for (const std::size_t id : erased) ASSERT_TRUE(replay->erase(id));
  ASSERT_EQ(index->size(), replay->size());
  for (const auto& query : data.queries) {
    const auto a = index->query_one(query, 5);
    const auto b = replay->query_one(query, 5);
    ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
    EXPECT_EQ(a.label, b.label);
    for (std::size_t j = 0; j < a.neighbors.size(); ++j) {
      EXPECT_EQ(a.neighbors[j].index, b.neighbors[j].index);
      EXPECT_EQ(a.neighbors[j].distance, b.neighbors[j].distance);
    }
  }
}

TEST(StressSharded, ConcurrentBatchExecutorsShareOneIndex) {
  const Data data = make_data(64, 8, 24, 71);
  search::EngineConfig config;
  config.bank_rows = 16;
  const auto index = search::make_index("sharded-cosine", config);
  index->calibrate(data.rows);
  index->add(data.rows, data.labels);

  // Reference answers, sequentially.
  search::BatchOptions sequential;
  sequential.num_threads = 1;
  const auto reference = search::BatchExecutor(sequential).run(*index, data.queries, 3);

  // Several BatchExecutors, each with its own threads, share the const
  // index; every thread walks the banks itself.
  search::BatchOptions nested;
  nested.num_threads = 2;
  nested.min_shard_size = 1;
  run_torture(stress_threads(), [&](std::size_t) {
    for (std::size_t round = 0; round < iterations(4); ++round) {
      const auto results = search::BatchExecutor(nested).run(*index, data.queries, 3);
      ASSERT_EQ(results.size(), reference.size());
      for (std::size_t i = 0; i < results.size(); ++i) {
        ASSERT_EQ(results[i].neighbors.size(), reference[i].neighbors.size());
        for (std::size_t j = 0; j < results[i].neighbors.size(); ++j) {
          ASSERT_EQ(results[i].neighbors[j].index, reference[i].neighbors[j].index);
          ASSERT_EQ(results[i].neighbors[j].distance,
                    reference[i].neighbors[j].distance);
        }
      }
    }
  });
}

// --- Metrics registry tortures ----------------------------------------------

TEST(StressMetrics, ResolveVsIncrementVsSnapshotTorture) {
  obs::Registry& registry = obs::registry();
  const std::size_t threads = stress_threads();
  const std::size_t iters = iterations(400);

  std::atomic<bool> done{false};
  // A dedicated snapshotter races resolution and increments; counter
  // values it sees must be monotone (counters never go backward).
  std::thread snapshotter([&] {
    std::uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const obs::MetricsSnapshot snap = obs::snapshot();
      for (const auto& counter : snap.counters) {
        if (counter.name == "stress_resolve_counter" && counter.labels.empty()) {
          EXPECT_GE(counter.value, last);
          last = counter.value;
        }
      }
    }
  });

  run_torture(threads, [&](std::size_t t) {
    // Re-resolving on every iteration is the torture: the lock-sharded
    // resolve path races other resolvers, the snapshotter, and the
    // incrementing handles.
    for (std::size_t i = 0; i < iters; ++i) {
      const obs::Counter counter = registry.counter("stress_resolve_counter");
      counter.inc();
      const obs::Counter labeled = registry.counter(
          "stress_labeled_counter", {{"thread", std::to_string(t % 3)}});
      labeled.inc(2);
      const obs::Gauge gauge = registry.gauge("stress_gauge");
      gauge.set(static_cast<double>(i));
      const obs::Histogram histogram =
          registry.histogram("stress_histogram", {1.0, 10.0, 100.0});
      histogram.observe(static_cast<double>(i % 200));
    }
  });
  done.store(true, std::memory_order_release);
  snapshotter.join();

  // Quiescent totals are exact.
  EXPECT_EQ(registry.counter("stress_resolve_counter").value(), threads * iters);
  std::uint64_t labeled_total = 0;
  for (int l = 0; l < 3; ++l) {
    labeled_total +=
        registry.counter("stress_labeled_counter", {{"thread", std::to_string(l)}})
            .value();
  }
  EXPECT_EQ(labeled_total, 2 * threads * iters);
  EXPECT_EQ(registry.histogram("stress_histogram", {1.0, 10.0, 100.0}).count(),
            threads * iters);
}

TEST(StressMetrics, HistogramSnapshotDuringIncrementsPinnedContract) {
  // Pins the documented snapshot()-under-concurrency contract
  // (obs/metrics.hpp): each field is individually torn-free and monotone,
  // cross-field consistency is NOT guaranteed mid-flight, and a quiescent
  // snapshot is exact.
  obs::Registry& registry = obs::registry();
  const std::vector<double> bounds{0.5, 1.5, 2.5};
  const obs::Histogram histogram = registry.histogram("stress_pin_histogram", bounds);
  const std::size_t threads = stress_threads();
  const std::size_t iters = iterations(500);

  std::atomic<bool> done{false};
  std::thread snapshotter([&] {
    std::uint64_t last_count = 0;
    while (!done.load(std::memory_order_acquire)) {
      const obs::MetricsSnapshot snap = obs::snapshot();
      for (const auto& sample : snap.histograms) {
        if (sample.name != "stress_pin_histogram") continue;
        // Monotone per field; never more observations than the quiescent
        // total. (No bucket-sum == count assertion: the relaxed fields
        // are documented as individually- not jointly-consistent.)
        EXPECT_GE(sample.count, last_count);
        EXPECT_LE(sample.count, threads * iters);
        last_count = sample.count;
      }
    }
  });

  run_torture(threads, [&](std::size_t t) {
    for (std::size_t i = 0; i < iters; ++i) {
      histogram.observe(static_cast<double>((t + i) % 4));  // 0,1,2,3 -> all buckets.
    }
  });
  done.store(true, std::memory_order_release);
  snapshotter.join();

  // Quiescent exactness: count, bucket totals, and sum all agree.
  const obs::MetricsSnapshot snap = obs::snapshot();
  bool found = false;
  for (const auto& sample : snap.histograms) {
    if (sample.name != "stress_pin_histogram") continue;
    found = true;
    EXPECT_EQ(sample.count, threads * iters);
    std::uint64_t bucket_total = 0;
    for (const std::uint64_t c : sample.counts) bucket_total += c;
    EXPECT_EQ(bucket_total, sample.count);
  }
  EXPECT_TRUE(found);
}

// --- Trace layer tortures ---------------------------------------------------

TEST(StressTrace, SinkRingContention) {
  obs::TraceSink sink(64);
  const std::size_t threads = stress_threads();
  const std::size_t per_thread = iterations(300);

  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::vector<obs::TraceRecord> recent = sink.recent();
      EXPECT_LE(recent.size(), 64u);
      for (std::size_t i = 1; i < recent.size(); ++i) {
        EXPECT_LT(recent[i - 1].id, recent[i].id);  // Oldest-first, unique ids.
      }
      (void)sink.to_jsonl();
    }
  });

  run_torture(threads, [&](std::size_t t) {
    for (std::size_t i = 0; i < per_thread; ++i) {
      obs::Trace trace("stress.sink");
      obs::TraceSpan span(&trace, t % 2 == 0 ? "even" : "odd");
      span.note("i", static_cast<double>(i));
      span.close();
      sink.record(trace.finish());
    }
  });
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(sink.recorded_total(), threads * per_thread);
  const std::vector<obs::TraceRecord> recent = sink.recent();
  EXPECT_EQ(recent.size(), std::min<std::size_t>(64, threads * per_thread));
  EXPECT_EQ(recent.back().id, threads * per_thread);
}

TEST(StressTrace, SamplerSharedCounterIsExact) {
  // The sampler's single relaxed fetch_add distributes "every Nth" across
  // threads; the TOTAL number of sampled calls is exact regardless of
  // interleaving: |{i in [0, total) : i % every == 0}|.
  constexpr std::size_t kEvery = 7;
  obs::TraceSampler sampler(kEvery);
  const std::size_t threads = stress_threads();
  const std::size_t per_thread = iterations(1000);
  std::atomic<std::size_t> sampled{0};

  run_torture(threads, [&](std::size_t) {
    for (std::size_t i = 0; i < per_thread; ++i) {
      if (sampler.should_sample()) sampled.fetch_add(1);
    }
  });

  const std::size_t total = threads * per_thread;
  EXPECT_EQ(sampled.load(), (total + kEvery - 1) / kEvery);
}

TEST(StressTrace, ConcurrentSpansOnOneTrace) {
  // Trace::add stays thread-safe because a serving front hands a sampled
  // trace from the caller's thread to a worker; this torture records spans
  // onto one Trace from many threads at once.
  obs::Trace trace("stress.fanout");
  const std::size_t threads = stress_threads();
  const std::size_t per_thread = iterations(200);

  run_torture(threads, [&](std::size_t t) {
    for (std::size_t i = 0; i < per_thread; ++i) {
      obs::TraceSpan span(&trace, "bank-query");
      span.note("bank", static_cast<double>(t));
      span.close();
    }
  });

  const obs::TraceRecord record = trace.finish();
  EXPECT_EQ(record.spans.size(), threads * per_thread);
  for (const obs::SpanRecord& span : record.spans) {
    EXPECT_GE(span.start_ms, 0.0);
    EXPECT_GE(span.elapsed_ms, 0.0);
  }
}

}  // namespace
}  // namespace mcam
