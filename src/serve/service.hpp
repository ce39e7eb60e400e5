// Concurrent query service: the request-serving front end over any
// NnIndex.
//
// A `QueryService` drains requests through the shared serving runtime
// (serve/runtime.hpp: bounded queue, worker pool, reject-with-status
// admission, request stats). `submit` never blocks the caller: a request
// either enters the queue (and its future completes when a worker
// finishes it), is answered straight from the LRU result cache, or - when
// the queue is full - comes back immediately with RequestStatus::kRejected.
//
// Concurrency model: `NnIndex::query_one` is const and touches no mutable
// state, so queries execute under a shared lock; `add`/`erase` route
// through the service, take the exclusive lock, bump the cache generation
// and clear the cache. A worker only inserts a result whose generation
// still matches, so a query raced by an erase can never resurrect a
// tombstoned row through the cache. Every accepted request completes with
// a result identical to calling `index.query_one` directly at that point
// in the add/erase history.
//
// Telemetry: `stats()` returns cumulative counters plus latency
// percentiles (p50/p95/p99 over a sliding window of completed requests),
// current/peak queue depth, cache hit rate, and throughput. Counters are
// process-local and deliberately not persisted by snapshots.
#pragma once

#include "serve/runtime.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace mcam::serve {

/// What a request's future resolves to.
struct QueryResponse {
  RequestStatus status = RequestStatus::kOk;
  bool cache_hit = false;           ///< Served from the LRU cache.
  search::QueryResult result;       ///< Valid when status == kOk.
  std::string error;                ///< Populated when status == kFailed.
};

/// Service knobs.
struct QueryServiceConfig {
  /// Worker threads; 0 = search::default_worker_count() (hardware
  /// concurrency, clamped to 1 on single-core hosts).
  std::size_t workers = 0;
  /// Bounded request queue; submits past this depth are rejected.
  std::size_t queue_capacity = 1024;
  /// LRU result-cache entries; 0 disables the cache.
  std::size_t cache_capacity = 0;
  /// Completed-request latencies kept for the percentile window.
  std::size_t latency_window = 4096;
  /// Per-query trace sampling: 1 of every `trace_sample` submitted queries
  /// records a full stage trace into obs::TraceSink::global(). 0 = off
  /// (the default), unless the MCAM_TRACE_SAMPLE environment variable
  /// supplies a nonzero fallback. 1 = trace every query.
  std::size_t trace_sample = 0;
  /// Recall-canary sampling (obs/health): 1 in `canary.sample_every`
  /// completed (executed, non-cache-hit) queries is re-run through the
  /// exact fine path on a background worker and scored against the served
  /// answer. Off by default (sample_every = 0): no worker thread, and the
  /// served results stay bit-identical.
  obs::health::CanaryOptions canary{};
  /// Device-health scrubbing cadence/thresholds. scrub_period 0 (the
  /// default) runs no background worker; scrub_health() still sweeps on
  /// demand.
  obs::health::MonitorOptions health{};
};

/// Thread-safe serving front end over one NnIndex.
class QueryService {
 public:
  /// The service borrows `index`; it must outlive the service, and all
  /// mutations must go through the service's `add`/`erase` (direct
  /// mutation would bypass the lock and the cache invalidation).
  explicit QueryService(search::NnIndex& index, QueryServiceConfig config = {});

  /// Stops accepting, drains every accepted request, joins the workers.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Submits one top-k query. Never blocks: the returned future is
  /// already resolved for cache hits, rejections, and post-stop submits.
  /// The cache key uses `k` normalized to the NnIndex k-convention
  /// (clamped to [1, size()], search/index.hpp), so the same logical
  /// query never occupies two cache entries under k = 0 vs k = 1 or two
  /// k's past the index size; execution itself passes the raw k through
  /// and lets the engine clamp at execution time, which keeps answers
  /// serially correct when a submit races a mutation.
  [[nodiscard]] std::future<QueryResponse> submit(std::vector<float> query, std::size_t k);

  /// Synchronous convenience: `submit(...).get()`.
  [[nodiscard]] QueryResponse query_one(std::vector<float> query, std::size_t k);

  /// Serialized mutations; both invalidate the result cache atomically
  /// with the index change.
  void add(std::span<const std::vector<float>> rows, std::span<const int> labels);
  bool erase(std::size_t id);

  /// Live entries in the underlying index.
  [[nodiscard]] std::size_t size() const;

  /// Telemetry snapshot (percentiles computed over the current window).
  [[nodiscard]] ServiceStats stats() const;

  // --- Online health monitoring (obs/health) -----------------------------
  //
  // The canary's exact re-execution scans ids [0, rows-added-through-this-
  // service + index.size()-at-construction): query_subset ignores ids that
  // were never added or are tombstoned, so the bound only needs to be an
  // over-approximation. It is exact as long as every mutation routes
  // through this service (already the class contract above); an index that
  // saw erases *before* construction may have live ids past size(), which
  // the canary would then miss - construct the service first if canaries
  // are on.

  /// Canary statistics (empty/default when sampling is off).
  [[nodiscard]] obs::health::CanaryReport canary_report() const;
  /// Blocks until every queued canary has been re-executed (tests/benches).
  void canary_drain();
  /// Combined canary + last-scrub health snapshot (exporters::to_json).
  [[nodiscard]] obs::health::HealthReport health_report() const;
  /// One synchronous device scrub over every CAM bank of the index (also
  /// what the periodic worker runs when config.health.scrub_period > 0).
  std::vector<obs::health::BankHealth> scrub_health();
  /// Test/maintenance hook: injects retention drift into the index's CAM
  /// cells (health::inject_drift) under the exclusive lock and invalidates
  /// the result cache (drift changes match outcomes). Returns the number
  /// of cells perturbed.
  std::size_t inject_drift(double sigma, std::uint64_t seed);

  /// Idempotent: stop accepting, drain accepted requests, join workers.
  void stop();

 private:
  struct Request {
    std::vector<float> query;
    std::size_t k = 1;  ///< Raw k (>= 1); engines clamp to size at execution,
                        ///< and the worker derives the cache-key clamp from
                        ///< the execution-time size under the same lock that
                        ///< samples the cache generation.
    std::promise<QueryResponse> promise;
    std::chrono::steady_clock::time_point submitted;
    /// Sampled stage trace riding the request (null = not sampled). The
    /// worker installs it as its thread's current trace for execution and
    /// records it into the global sink on completion.
    std::unique_ptr<obs::Trace> trace;
  };

  struct CacheKey {
    std::vector<float> query;
    std::size_t k = 1;
    /// Bit-exact equality, matching the hash: float== would make
    /// NaN-containing keys unfindable (and +0.0/-0.0 hash-inconsistent),
    /// corrupting the LRU map.
    bool operator==(const CacheKey& other) const;
  };
  struct CacheKeyHash {
    std::size_t operator()(const CacheKey& key) const noexcept;
  };
  using LruList = std::list<std::pair<CacheKey, search::QueryResult>>;

  /// Runs one dequeued request on a worker: executes it under the shared
  /// index lock, samples the canary, caches the result, books completion.
  QueryResponse execute(Request& request);
  /// Probes the cache; on a hit resolves `promise` and returns true.
  bool try_cache(const std::vector<float>& query, std::size_t k,
                 std::promise<QueryResponse>& promise,
                 std::chrono::steady_clock::time_point submitted);
  /// Inserts a result computed at cache generation `generation` (skipped
  /// when a mutation invalidated in between).
  void cache_insert(std::vector<float> query, std::size_t k,
                    const search::QueryResult& result, std::uint64_t generation);
  /// Bumps the generation and clears the cache (call with the exclusive
  /// index lock held).
  void invalidate_cache();

  search::NnIndex& index_;
  QueryServiceConfig config_;

  // Lock hierarchy (acquire strictly left to right; stress-tested by
  // tests/stress/ and watched by TSan's deadlock detector in CI):
  //   index_mutex_ -> cache_mutex_                 (execute / mutate path)
  //   executor queue lock -> RequestStats lock     (admission, in runtime.hpp)
  // The RequestStats lock is the leaf under either; index_mutex_ and the
  // executor's queue lock are never held together.

  /// lock-order: first (before cache_mutex_ and the stats leaf).
  /// shared = query, exclusive = add/erase.
  mutable std::shared_mutex index_mutex_;
  /// Guarded by index_mutex_: upper bound (exclusive) on the ids ever
  /// added, feeding the canary's exact query_subset scan (see the health
  /// accessors above for the over-approximation argument).
  std::size_t id_bound_ = 0;

  /// lock-order: after index_mutex_, before the stats leaf.
  mutable std::mutex cache_mutex_;
  LruList lru_;
  std::unordered_map<CacheKey, LruList::iterator, CacheKeyHash> cache_;
  std::atomic<std::uint64_t> cache_generation_{0};
  obs::Counter cache_hits_counter_;  ///< mcam_serve_cache_hits_total.

  obs::TraceSampler trace_sampler_;
  Tenant tenant_;  ///< The service's request stats (mcam_serve_*).

  // Health monitors; monitor_ borrows canary_, so it is declared after it
  // (destroyed first). Their worker callbacks only ever take index_mutex_
  // (shared), never the queue or stats locks.
  std::unique_ptr<obs::health::RecallCanary> canary_;
  std::unique_ptr<obs::health::HealthMonitor> monitor_;

  /// Declared last: built once everything a request touches exists, and
  /// destroyed (workers joined) first.
  Executor<Request, QueryResponse> executor_;
};

}  // namespace mcam::serve
