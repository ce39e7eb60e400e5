// QueryService invariants: every accepted request completes with results
// identical to direct query_one, full-queue rejections are reported (never
// dropped or blocked on), the LRU cache can never serve a tombstoned row
// after erase (generation-checked inserts), and ServiceStats percentiles /
// hit rates / queue depths are populated. Also the erase-then-query
// tombstone property across every path: monolithic backends, sharded
// backends, and the service cache.
#include "serve/service.hpp"

#include "search/batch.hpp"
#include "search/factory.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

namespace mcam::serve {
namespace {

using search::EngineConfig;
using search::NnIndex;
using search::QueryResult;

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
      v[i] = static_cast<float>(rng.normal(cls * 1.3 + (i % 2) * 0.4, 0.6));
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

void expect_identical(const QueryResult& served, const QueryResult& direct,
                      const std::string& context) {
  EXPECT_EQ(served.label, direct.label) << context;
  ASSERT_EQ(served.neighbors.size(), direct.neighbors.size()) << context;
  for (std::size_t i = 0; i < direct.neighbors.size(); ++i) {
    EXPECT_EQ(served.neighbors[i].index, direct.neighbors[i].index) << context;
    EXPECT_EQ(served.neighbors[i].distance, direct.neighbors[i].distance) << context;
  }
}

/// Wraps an index with an artificial per-query delay so queue-full
/// rejections are deterministic in the backpressure test.
class SlowIndex final : public NnIndex {
 public:
  SlowIndex(NnIndex& inner, std::chrono::milliseconds delay)
      : inner_(inner), delay_(delay) {}
  void add(std::span<const std::vector<float>> rows, std::span<const int> labels) override {
    inner_.add(rows, labels);
  }
  void clear() override { inner_.clear(); }
  bool erase(std::size_t id) override { return inner_.erase(id); }
  [[nodiscard]] std::size_t size() const override { return inner_.size(); }
  [[nodiscard]] QueryResult query_one(std::span<const float> query,
                                      std::size_t k) const override {
    std::this_thread::sleep_for(delay_);
    return inner_.query_one(query, k);
  }
  [[nodiscard]] std::string name() const override { return "slow " + inner_.name(); }

 private:
  NnIndex& inner_;
  std::chrono::milliseconds delay_;
};

TEST(QueryService, ConcurrentClientsMatchDirectQueries) {
  const Data data = make_data(120, 6, 16, 401);
  EngineConfig config;
  config.num_features = 6;
  config.bank_rows = 32;
  auto index = search::make_index("sharded-mcam3", config);
  index->add(data.rows, data.labels);

  // Expected answers, computed directly before the service exists.
  std::vector<QueryResult> expected;
  expected.reserve(data.queries.size());
  for (const auto& q : data.queries) expected.push_back(index->query_one(q, 5));

  QueryServiceConfig service_config;
  service_config.workers = 4;
  service_config.queue_capacity = 4096;
  service_config.cache_capacity = 64;
  QueryService service{*index, service_config};

  constexpr std::size_t kClients = 6;
  constexpr std::size_t kPerClient = 40;
  std::vector<std::thread> clients;
  std::vector<std::vector<std::future<QueryResponse>>> futures(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const std::size_t qi = (c * kPerClient + i) % data.queries.size();
        futures[c].push_back(service.submit(data.queries[qi], 5));
      }
    });
  }
  for (auto& t : clients) t.join();

  std::size_t completed = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t i = 0; i < futures[c].size(); ++i) {
      QueryResponse response = futures[c][i].get();
      ASSERT_EQ(response.status, RequestStatus::kOk) << response.error;
      const std::size_t qi = (c * kPerClient + i) % data.queries.size();
      expect_identical(response.result, expected[qi],
                       "client " + std::to_string(c) + " req " + std::to_string(i));
      ++completed;
    }
  }
  EXPECT_EQ(completed, kClients * kPerClient);

  // The cache is warm now (workers inserted every distinct result, and 16
  // keys cannot evict from 64 slots), so sequential repeats must hit and
  // still match the direct answers.
  for (std::size_t qi = 0; qi < data.queries.size(); ++qi) {
    const QueryResponse hit = service.query_one(data.queries[qi], 5);
    ASSERT_EQ(hit.status, RequestStatus::kOk);
    EXPECT_TRUE(hit.cache_hit) << "query " << qi;
    expect_identical(hit.result, expected[qi], "cache hit " + std::to_string(qi));
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.accepted, kClients * kPerClient + data.queries.size());
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.completed + stats.failed, stats.accepted);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(stats.cache_hits, data.queries.size());
  EXPECT_GT(stats.cache_hit_rate, 0.0);
  EXPECT_GE(stats.latency_p95_ms, stats.latency_p50_ms);
  EXPECT_GE(stats.latency_p99_ms, stats.latency_p95_ms);
  EXPECT_GT(stats.throughput_qps, 0.0);
  EXPECT_EQ(stats.workers, 4u);
}

TEST(QueryService, FullQueueRejectsWithStatusAndAcceptedStillComplete) {
  const Data data = make_data(40, 4, 8, 403);
  auto index = search::make_index("euclidean", EngineConfig{});
  index->add(data.rows, data.labels);
  SlowIndex slow{*index, std::chrono::milliseconds{20}};

  QueryServiceConfig service_config;
  service_config.workers = 1;
  service_config.queue_capacity = 2;
  QueryService service{slow, service_config};

  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(service.submit(data.queries[i % data.queries.size()], 3));
  }
  std::size_t ok = 0;
  std::size_t rejected = 0;
  for (auto& f : futures) {
    const QueryResponse response = f.get();
    if (response.status == RequestStatus::kOk) {
      ++ok;
      EXPECT_FALSE(response.result.neighbors.empty());
    } else {
      ASSERT_EQ(response.status, RequestStatus::kRejected);
      EXPECT_NE(response.error.find("queue full"), std::string::npos);
      ++rejected;
    }
  }
  // A 20ms/query worker against an instant submit loop must overflow a
  // 2-deep queue; every outcome is reported, nothing is dropped.
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(ok + rejected, 12u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.accepted, ok);
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.completed, ok);
  EXPECT_LE(stats.queue_depth_peak, 2u);
  EXPECT_GE(stats.latency_p50_ms, 0.0);
}

TEST(QueryService, StopDrainsAcceptedAndRejectsLateSubmits) {
  const Data data = make_data(30, 4, 4, 405);
  auto index = search::make_index("manhattan", EngineConfig{});
  index->add(data.rows, data.labels);
  SlowIndex slow{*index, std::chrono::milliseconds{5}};

  QueryServiceConfig service_config;
  service_config.workers = 1;
  service_config.queue_capacity = 64;
  service_config.cache_capacity = 8;
  QueryService service{slow, service_config};
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(service.submit(data.queries[i % data.queries.size()], 1));
  }
  service.stop();
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, RequestStatus::kOk);  // Accepted => drained.
  }
  // Uniform terminal semantics: even queries sitting in the cache answer
  // kShutdown after stop (the cache is no longer invalidated, so serving
  // from it could return stale results).
  const QueryResponse late = service.query_one(data.queries[0], 1);
  EXPECT_EQ(late.status, RequestStatus::kShutdown);
  const QueryResponse cached_late = service.query_one(data.queries[1], 1);
  EXPECT_EQ(cached_late.status, RequestStatus::kShutdown);
  EXPECT_FALSE(cached_late.cache_hit);
}

TEST(QueryService, FailedQueriesReportErrorNotCrash) {
  auto index = search::make_index("cosine", EngineConfig{});
  QueryService service{*index, QueryServiceConfig{}};
  // Querying an empty index throws inside the worker; the future must
  // resolve to kFailed with the message, and the service must survive.
  const QueryResponse response = service.query_one({1.0f, 2.0f}, 1);
  EXPECT_EQ(response.status, RequestStatus::kFailed);
  EXPECT_FALSE(response.error.empty());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.failed, 1u);
}

TEST(QueryService, NonFiniteMcamQueryFailsNamingTheFeature) {
  // A NaN feature used to reach an undefined float-to-integer cast in the
  // quantizer and resolve kOk with an arbitrary level; it must fail the
  // request with the feature named, and leave the service serving.
  const Data data = make_data(60, 4, 4, 402);
  auto index = search::make_index("mcam3", EngineConfig{});
  index->add(data.rows, data.labels);
  QueryService service{*index, QueryServiceConfig{}};
  std::vector<float> query = data.queries[0];
  query[2] = std::numeric_limits<float>::quiet_NaN();
  const QueryResponse response = service.query_one(query, 3);
  EXPECT_EQ(response.status, RequestStatus::kFailed);
  EXPECT_NE(response.error.find("non-finite value at feature 2"), std::string::npos)
      << response.error;
  EXPECT_EQ(service.query_one(data.queries[0], 3).status, RequestStatus::kOk);
  EXPECT_EQ(service.stats().failed, 1u);
}

TEST(Tombstones, EraseIsNeverServedFromAnyPath) {
  // Satellite acceptance: erase(id) followed by query_one must never
  // return the tombstoned row - monolithic, sharded, or service cache.
  const Data data = make_data(60, 5, 4, 407);
  for (const std::string& name : search::EngineFactory::instance().registered_names()) {
    EngineConfig config;
    config.num_features = 5;
    config.bank_rows = name.rfind("sharded-", 0) == 0 ? 16 : 0;
    if (name == "refine") config.fine_spec = "euclidean";
    auto index = search::make_index(name, config);
    index->add(data.rows, data.labels);
    const std::size_t victim = 11;
    ASSERT_TRUE(index->erase(victim)) << name;
    for (const auto& q : data.queries) {
      const QueryResult result = index->query_one(q, index->size());
      for (const auto& n : result.neighbors) {
        EXPECT_NE(n.index, victim) << name << ": tombstoned row served";
      }
    }
  }
}

TEST(Tombstones, ServiceCacheInvalidatesOnEraseAndAdd) {
  const Data data = make_data(50, 5, 1, 409);
  EngineConfig config;
  config.num_features = 5;
  config.bank_rows = 16;
  auto index = search::make_index("sharded-euclidean", config);
  index->add(data.rows, data.labels);

  QueryServiceConfig service_config;
  service_config.workers = 2;
  service_config.cache_capacity = 32;
  QueryService service{*index, service_config};

  const std::vector<float>& q = data.queries.front();
  const std::size_t k = data.rows.size();  // Full ranking: every live row.
  const QueryResponse first = service.query_one(q, k);
  ASSERT_EQ(first.status, RequestStatus::kOk);

  // Warm the cache, then prove the hit path works pre-erase.
  const QueryResponse warm = service.query_one(q, k);
  ASSERT_EQ(warm.status, RequestStatus::kOk);
  EXPECT_TRUE(warm.cache_hit);
  expect_identical(warm.result, first.result, "warm hit");

  const std::size_t victim = first.result.neighbors.front().index;
  EXPECT_TRUE(service.erase(victim));
  const QueryResponse after = service.query_one(q, k);
  ASSERT_EQ(after.status, RequestStatus::kOk);
  EXPECT_FALSE(after.cache_hit) << "erase must invalidate the cache";
  for (const auto& n : after.result.neighbors) {
    EXPECT_NE(n.index, victim) << "tombstoned row served from the service";
  }

  // add() invalidates too: the previously cached (post-erase) result must
  // be recomputed over the enlarged index.
  const QueryResponse recached = service.query_one(q, k);
  EXPECT_TRUE(recached.cache_hit);
  const Data extra = make_data(8, 5, 0, 411);
  service.add(extra.rows, extra.labels);
  const QueryResponse grown = service.query_one(q, k + extra.rows.size());
  ASSERT_EQ(grown.status, RequestStatus::kOk);
  EXPECT_FALSE(grown.cache_hit);
  EXPECT_EQ(grown.result.neighbors.size(), data.rows.size() - 1 + extra.rows.size());

  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.invalidations, 2u);
  EXPECT_GT(stats.cache_hits, 0u);
}

TEST(QueryService, MutationsInterleavedWithConcurrentClientsStaySane) {
  // Torture loop for the lock/cache interaction (ASan/TSan fodder): half
  // the threads query, one thread adds and erases. Every response must be
  // kOk (never a torn read / stale cache crash), and erased victims must
  // never appear in post-completion results read after the mutator joins.
  const Data data = make_data(90, 5, 6, 413);
  EngineConfig config;
  config.num_features = 5;
  config.bank_rows = 32;
  auto index = search::make_index("sharded-mcam2", config);
  index->add(data.rows, data.labels);

  QueryServiceConfig service_config;
  service_config.workers = 3;
  service_config.queue_capacity = 4096;
  service_config.cache_capacity = 16;
  QueryService service{*index, service_config};

  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  std::atomic<std::size_t> served{0};
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      std::size_t i = 0;
      while (!stop.load()) {
        auto response = service.submit(data.queries[(c + i++) % data.queries.size()], 3);
        const QueryResponse r = response.get();
        if (r.status == RequestStatus::kOk) served.fetch_add(1);
      }
    });
  }
  const Data extra = make_data(30, 5, 0, 415);
  for (std::size_t m = 0; m < extra.rows.size(); ++m) {
    service.add(std::span{extra.rows}.subspan(m, 1), std::span{extra.labels}.subspan(m, 1));
    (void)service.erase(m);  // Tombstone the seed rows one by one.
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  stop.store(true);
  for (auto& t : clients) t.join();
  EXPECT_GT(served.load(), 0u);

  // After the dust settles: erased ids 0..29 must be unreachable.
  const QueryResponse final_state = service.query_one(data.queries[0], service.size());
  ASSERT_EQ(final_state.status, RequestStatus::kOk);
  for (const auto& n : final_state.result.neighbors) {
    EXPECT_GE(n.index, extra.rows.size());
  }
}

TEST(KConvention, CacheNormalizesZeroKToOneNn) {
  // Satellite (k-convention drift): the cache key includes k, so without
  // normalization the same logical query was cached twice - and answered
  // twice - under k = 0 and k = 1. The probe now sees one key.
  const Data data = make_data(30, 4, 1, 431);
  EngineConfig config;
  config.num_features = 4;
  auto index = search::make_index("euclidean", config);
  index->add(data.rows, data.labels);

  QueryServiceConfig service_config;
  service_config.workers = 1;
  service_config.cache_capacity = 8;
  QueryService service{*index, service_config};

  const QueryResponse via_zero = service.query_one(data.queries[0], 0);
  ASSERT_EQ(via_zero.status, RequestStatus::kOk);
  EXPECT_FALSE(via_zero.cache_hit);
  ASSERT_EQ(via_zero.result.neighbors.size(), 1u);  // k = 0 -> 1-NN.

  const QueryResponse via_one = service.query_one(data.queries[0], 1);
  ASSERT_EQ(via_one.status, RequestStatus::kOk);
  EXPECT_TRUE(via_one.cache_hit) << "k=0 and k=1 must share one cache entry";
  expect_identical(via_one.result, via_zero.result, "k=0/k=1 cache unification");

  // The upper bound normalizes too: any k past size() is the same
  // logical full-index query and must share one cache entry.
  const QueryResponse via_forty = service.query_one(data.queries[0], 40);
  ASSERT_EQ(via_forty.status, RequestStatus::kOk);
  EXPECT_FALSE(via_forty.cache_hit);
  EXPECT_EQ(via_forty.result.neighbors.size(), 30u);
  const QueryResponse via_thirty_one = service.query_one(data.queries[0], 31);
  ASSERT_EQ(via_thirty_one.status, RequestStatus::kOk);
  EXPECT_TRUE(via_thirty_one.cache_hit) << "k>size must normalize to one cache entry";
  expect_identical(via_thirty_one.result, via_forty.result, "k>size cache unification");

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_lookups, 4u);
  EXPECT_EQ(stats.cache_hits, 2u);
}

TEST(CoarseMarginStats, ServiceObservesTheMarginDistribution) {
  // The two-stage pipeline reports a coarse nomination margin per
  // executed query; the service aggregates it so an adaptive
  // candidate_factor policy has a distribution to read. Cache hits replay
  // results without sweeping the TCAM, so they must not be counted.
  const Data data = make_data(60, 6, 4, 431);
  EngineConfig config;
  config.num_features = 6;
  config.fine_spec = "euclidean";
  config.coarse_bits = 24;
  config.candidate_factor = 2;
  auto index = search::make_index("refine", config);
  index->add(data.rows, data.labels);

  QueryServiceConfig service_config;
  service_config.workers = 1;
  service_config.cache_capacity = 8;
  QueryService service{*index, service_config};
  for (const auto& q : data.queries) {
    const QueryResponse response = service.query_one(q, 3);
    ASSERT_EQ(response.status, RequestStatus::kOk);
    EXPECT_EQ(response.result.telemetry.probes_used, 1u);
  }
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.coarse_margin_queries, data.queries.size());
  EXPECT_GE(stats.coarse_margin_mean, 0.0);
  EXPECT_GE(stats.coarse_margin_p95, stats.coarse_margin_p50);
  const std::size_t executed = stats.coarse_margin_queries;

  // A repeat of the same query is a cache hit: counted as completed, but
  // no new margin sample.
  const QueryResponse hit = service.query_one(data.queries[0], 3);
  ASSERT_EQ(hit.status, RequestStatus::kOk);
  ASSERT_TRUE(hit.cache_hit);
  stats = service.stats();
  EXPECT_EQ(stats.coarse_margin_queries, executed);

  // A query whose candidate budget covers every live row sweeps but has
  // no nomination cut - its margin 0 means "nothing excluded", not "zero
  // confidence", and must not dilute the distribution.
  const QueryResponse all = service.query_one(data.queries[1], 60);
  ASSERT_EQ(all.status, RequestStatus::kOk);
  EXPECT_EQ(all.result.telemetry.probes_used, 1u);
  EXPECT_EQ(all.result.telemetry.fine_candidates, 60u);
  stats = service.stats();
  EXPECT_EQ(stats.coarse_margin_queries, executed);

  // An index without a coarse stage never contributes margin samples.
  auto flat = search::make_index("euclidean", EngineConfig{});
  flat->add(data.rows, data.labels);
  QueryService flat_service{*flat, service_config};
  for (const auto& q : data.queries) {
    ASSERT_EQ(flat_service.query_one(q, 3).status, RequestStatus::kOk);
  }
  const ServiceStats flat_stats = flat_service.stats();
  EXPECT_EQ(flat_stats.coarse_margin_queries, 0u);
  EXPECT_EQ(flat_stats.coarse_margin_mean, 0.0);
  EXPECT_EQ(flat_stats.coarse_margin_p95, 0.0);
}

TEST(CoarseMarginStats, RingWraparoundKeepsOnlyTheLastWindow) {
  // The margin ring shares latency_window: with a 4-deep window, 10
  // executed queries must leave the *last 4* margins in the percentile
  // sample while the cumulative counter keeps all 10.
  const Data data = make_data(60, 6, 10, 947);
  EngineConfig config;
  config.num_features = 6;
  config.fine_spec = "euclidean";
  config.coarse_bits = 24;
  config.candidate_factor = 2;
  auto index = search::make_index("refine", config);
  index->add(data.rows, data.labels);

  // Ground truth: the margins the engine reports directly (deterministic
  // under kIdealSum, and queries mutate nothing).
  std::vector<double> margins;
  for (const auto& q : data.queries) {
    margins.push_back(index->query_one(q, 3).telemetry.coarse_margin);
  }
  std::vector<double> window(margins.end() - 4, margins.end());
  std::sort(window.begin(), window.end());
  double expected_mean = 0.0;
  for (double m : window) expected_mean += m;
  expected_mean /= static_cast<double>(window.size());

  QueryServiceConfig service_config;
  service_config.workers = 1;
  service_config.latency_window = 4;
  QueryService service{*index, service_config};
  for (const auto& q : data.queries) {
    ASSERT_EQ(service.query_one(q, 3).status, RequestStatus::kOk);
  }

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.coarse_margin_queries, data.queries.size());  // Cumulative.
  EXPECT_DOUBLE_EQ(stats.coarse_margin_mean, expected_mean);    // Window only.
  EXPECT_DOUBLE_EQ(stats.coarse_margin_p50, nearest_rank_percentile(window, 50.0));
  EXPECT_DOUBLE_EQ(stats.coarse_margin_p95, nearest_rank_percentile(window, 95.0));

  // stats() after stop() still serves the final counters (no deadlock, no
  // reset): the telemetry outlives the worker pool.
  service.stop();
  const ServiceStats after = service.stats();
  EXPECT_EQ(after.coarse_margin_queries, stats.coarse_margin_queries);
  EXPECT_DOUBLE_EQ(after.coarse_margin_mean, stats.coarse_margin_mean);
  EXPECT_DOUBLE_EQ(after.coarse_margin_p50, stats.coarse_margin_p50);
  EXPECT_DOUBLE_EQ(after.coarse_margin_p95, stats.coarse_margin_p95);
  EXPECT_EQ(after.completed, data.queries.size());
}

TEST(LatencyWindow, NearestRankPercentileBoundaries) {
  // The estimator behind ServiceStats percentiles, pinned at the window
  // boundaries the sliding window actually produces.
  EXPECT_DOUBLE_EQ(nearest_rank_percentile({}, 99.0), 0.0);  // Empty window.
  // One sample: every percentile is that sample.
  const std::vector<double> one{7.5};
  EXPECT_DOUBLE_EQ(nearest_rank_percentile(one, 50.0), 7.5);
  EXPECT_DOUBLE_EQ(nearest_rank_percentile(one, 99.0), 7.5);
  EXPECT_DOUBLE_EQ(nearest_rank_percentile(one, 0.0), 7.5);
  // Two samples: p50 is the first (rank ceil(1.0) = 1), p99 the second
  // (rank ceil(1.98) = 2) - nearest-rank never interpolates.
  const std::vector<double> two{1.0, 9.0};
  EXPECT_DOUBLE_EQ(nearest_rank_percentile(two, 50.0), 1.0);
  EXPECT_DOUBLE_EQ(nearest_rank_percentile(two, 51.0), 9.0);
  EXPECT_DOUBLE_EQ(nearest_rank_percentile(two, 95.0), 9.0);
  EXPECT_DOUBLE_EQ(nearest_rank_percentile(two, 99.0), 9.0);
  // Exactly full window: every rank reachable, p100 = max, p0 = min.
  const std::vector<double> four{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(nearest_rank_percentile(four, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(nearest_rank_percentile(four, 25.0), 1.0);
  EXPECT_DOUBLE_EQ(nearest_rank_percentile(four, 26.0), 2.0);
  EXPECT_DOUBLE_EQ(nearest_rank_percentile(four, 75.0), 3.0);
  EXPECT_DOUBLE_EQ(nearest_rank_percentile(four, 99.0), 4.0);
  EXPECT_DOUBLE_EQ(nearest_rank_percentile(four, 100.0), 4.0);
}

TEST(LatencyWindow, TinyWindowsAndExactFillAndWraparound) {
  const Data data = make_data(20, 4, 3, 433);
  EngineConfig config;
  config.num_features = 4;
  auto index = search::make_index("euclidean", config);
  index->add(data.rows, data.labels);

  {
    // Window of 1: the percentiles collapse onto the single retained
    // sample, p50 == p95 == p99, even after many completions overwrite it.
    QueryServiceConfig service_config;
    service_config.workers = 1;
    service_config.latency_window = 1;
    QueryService service{*index, service_config};
    for (int i = 0; i < 5; ++i) {
      ASSERT_EQ(service.query_one(data.queries[0], 2).status, RequestStatus::kOk);
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.completed, 5u);
    EXPECT_GT(stats.latency_p50_ms, 0.0);
    EXPECT_DOUBLE_EQ(stats.latency_p50_ms, stats.latency_p95_ms);
    EXPECT_DOUBLE_EQ(stats.latency_p95_ms, stats.latency_p99_ms);
  }
  {
    // Window of 2 at exact fill (latency_count_ == window): both samples
    // participate, p50 = the smaller, p99 = the larger.
    QueryServiceConfig service_config;
    service_config.workers = 1;
    service_config.latency_window = 2;
    QueryService service{*index, service_config};
    ASSERT_EQ(service.query_one(data.queries[0], 2).status, RequestStatus::kOk);
    ASSERT_EQ(service.query_one(data.queries[1], 2).status, RequestStatus::kOk);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.completed, 2u);
    EXPECT_GT(stats.latency_p50_ms, 0.0);
    EXPECT_LE(stats.latency_p50_ms, stats.latency_p95_ms);
    EXPECT_DOUBLE_EQ(stats.latency_p95_ms, stats.latency_p99_ms);
  }
  {
    // Wraparound: more completions than the window; the ring overwrites
    // the oldest samples, the count saturates at the window size, and the
    // percentile invariants keep holding (no stale zero-initialized slots
    // drag p50 to 0 once the window has been filled).
    QueryServiceConfig service_config;
    service_config.workers = 1;
    service_config.latency_window = 4;
    QueryService service{*index, service_config};
    for (int i = 0; i < 11; ++i) {
      ASSERT_EQ(service.query_one(data.queries[i % 3], 3).status, RequestStatus::kOk);
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.completed, 11u);
    EXPECT_GT(stats.latency_p50_ms, 0.0);
    EXPECT_LE(stats.latency_p50_ms, stats.latency_p95_ms);
    EXPECT_LE(stats.latency_p95_ms, stats.latency_p99_ms);
  }
}

TEST(WorkerDefaults, SingleCoreResolvesToOneInlineWorker) {
  // Satellite: defaults clamp to 1 on single-core / unknown hosts so the
  // spawn-free inline paths run; explicit requests always win.
  EXPECT_EQ(search::resolve_worker_count(0, 0), 1u);
  EXPECT_EQ(search::resolve_worker_count(0, 1), 1u);
  EXPECT_EQ(search::resolve_worker_count(0, 8), 8u);
  EXPECT_EQ(search::resolve_worker_count(3, 1), 3u);
  EXPECT_EQ(search::default_worker_count(),
            search::resolve_worker_count(0, std::thread::hardware_concurrency()));
  // BatchExecutor resolves its default through the same clamp.
  search::BatchExecutor executor{};
  EXPECT_EQ(executor.options().num_threads, search::default_worker_count());
  EXPECT_EQ(executor.threads_for(1), 1u);  // Below min_shard_size: inline.
}

}  // namespace
}  // namespace mcam::serve
