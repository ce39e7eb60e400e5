// Multi-tenant collection store: many named collections behind one shared
// worker pool with per-collection admission control and telemetry.
//
// Where serve::QueryService fronts exactly one NnIndex, a
// CollectionManager owns N store::Collections - each with its own engine
// spec (any EngineFactory backend), metadata, generation counter, and
// ServiceStats - and drains all their queries through ONE bounded queue
// and worker pool (the shared serving runtime, serve/runtime.hpp), so a
// burst against one tenant cannot starve the host of threads. Admission
// control is two-level: the global queue bound rejects when the host is
// saturated, and a per-collection in-flight cap rejects a single noisy
// tenant before it owns the whole queue. Both rejections surface as
// RequestStatus::kRejected (the QueryService backpressure contract),
// never silent drops.
//
// Concurrency model: each collection carries a shared_mutex - queries
// run under the shared side, mutations (add/erase/expire/drop) under the
// exclusive side - so tenants never block each other, and a drop races
// cleanly with in-flight queries (they resolve kShutdown once the
// collection is gone). Mutations are synchronous on the caller's thread:
// writers are rare and want the error, the worker pool is for queries.
//
// Persistence: `save(dir)` writes one v4 snapshot per collection (engine
// + metadata in one checksummed blob, serve/snapshot.hpp) plus a MANIFEST
// naming them; `load(dir)` restores the whole fleet. Stats are
// process-local and deliberately not persisted.
#pragma once

#include "obs/health/health.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/runtime.hpp"
#include "store/collection.hpp"

#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

namespace mcam::store {

/// Manager knobs.
struct ManagerConfig {
  /// Worker threads shared by every collection; 0 =
  /// search::default_worker_count().
  std::size_t workers = 0;
  /// Global bounded queue; submits past this depth are rejected.
  std::size_t queue_capacity = 1024;
  /// Per-collection in-flight cap: one tenant may occupy at most this many
  /// queue slots at a time.
  std::size_t collection_queue_cap = 256;
  /// Per-query trace sampling across every collection (1-in-N; 0 = off,
  /// falling back to the MCAM_TRACE_SAMPLE environment default). Sampled
  /// traces carry admission / queue-wait / route spans plus the engine's
  /// stage spans and land in obs::TraceSink::global().
  std::size_t trace_sample = 0;
  /// Per-collection recall-canary sampling (obs/health), applied to every
  /// collection created or loaded: 1 in `canary.sample_every` completed
  /// unfiltered queries is re-run through the exact post-filter path and
  /// scored against the served answer. Off by default.
  obs::health::CanaryOptions canary{};
  /// Per-collection device-health scrubbing; scrub_period 0 (the default)
  /// runs no background workers, scrub_collection() still sweeps on
  /// demand.
  obs::health::MonitorOptions health{};
};

/// What a submitted store query resolves to.
struct StoreResponse {
  serve::RequestStatus status = serve::RequestStatus::kOk;
  CollectionQueryResult result;  ///< Valid when status == kOk.
  std::string error;             ///< Set unless kOk: why it failed or was refused.
};

/// Multi-collection store front end. See the header comment.
class CollectionManager {
 public:
  explicit CollectionManager(ManagerConfig config = {});
  /// Stops accepting, drains accepted requests, joins the workers.
  ~CollectionManager();

  CollectionManager(const CollectionManager&) = delete;
  CollectionManager& operator=(const CollectionManager&) = delete;

  /// Creates an empty collection from an engine spec string. Throws
  /// std::invalid_argument when the name is empty, already taken, or the
  /// spec does not parse.
  void create_collection(const std::string& name, const std::string& spec,
                         const search::EngineConfig& base = {});

  /// Drops a collection: in-flight queries resolve kShutdown, the name
  /// becomes free again. Returns false when no such collection exists.
  bool drop_collection(const std::string& name);

  /// Sorted names of the live collections.
  [[nodiscard]] std::vector<std::string> collection_names() const;
  [[nodiscard]] bool contains(const std::string& name) const;
  [[nodiscard]] std::size_t collection_count() const;

  // --- Synchronous mutations (exclusive per-collection lock) -------------

  /// Calibrates the collection's engine without storing rows.
  void calibrate(const std::string& name, std::span<const std::vector<float>> rows);

  /// Untagged batch add; returns the first new row id.
  std::size_t add(const std::string& name, std::span<const std::vector<float>> rows,
                  std::span<const int> labels);

  /// Tagged batch add with optional per-row logical expiry ticks.
  std::size_t add(const std::string& name, std::span<const std::vector<float>> rows,
                  std::span<const int> labels,
                  std::span<const std::vector<std::string>> tags,
                  std::span<const std::uint64_t> expires_at = {});

  /// NnIndex erase contract, routed through the collection.
  bool erase(const std::string& name, std::size_t id);

  /// Expires every row of `name` whose TTL is due at logical tick `now`.
  std::size_t expire(const std::string& name, std::uint64_t now);

  /// Expires due rows in every collection; returns the total expired.
  std::size_t expire_all(std::uint64_t now);

  /// Live rows / mutation generation of one collection.
  [[nodiscard]] std::size_t size(const std::string& name) const;
  [[nodiscard]] std::uint64_t generation(const std::string& name) const;

  // --- Queries (shared worker pool) --------------------------------------

  /// Submits one (optionally filtered) top-k query. Never blocks: the
  /// future is already resolved for rejections and post-stop submits.
  /// Throws std::invalid_argument for an unknown collection.
  [[nodiscard]] std::future<StoreResponse> submit(const std::string& name,
                                                  std::vector<float> query, std::size_t k,
                                                  Predicate predicate = {});

  /// Synchronous convenience: `submit(...).get()`.
  [[nodiscard]] StoreResponse query_one(const std::string& name, std::vector<float> query,
                                        std::size_t k, Predicate predicate = {});

  /// Per-collection telemetry: the QueryService counters that apply
  /// (accepted/rejected/completed/failed, queue depths, latency
  /// percentiles, throughput) plus the filtered-search fields
  /// (filtered/band/post counts, mean predicate selectivity). Cache
  /// fields stay zero - the store layer runs no result cache. Throws
  /// std::invalid_argument for an unknown collection.
  [[nodiscard]] serve::ServiceStats stats(const std::string& name) const;

  // --- Online health monitoring (obs/health) -----------------------------

  /// Canary statistics for one collection (default/empty when sampling is
  /// off). Throws std::invalid_argument for an unknown collection.
  [[nodiscard]] obs::health::CanaryReport canary_report(const std::string& name) const;
  /// Blocks until the collection's queued canaries are re-executed.
  void canary_drain(const std::string& name);
  /// Combined canary + last-scrub health snapshot (exporters::to_json).
  [[nodiscard]] obs::health::HealthReport health_report(const std::string& name) const;
  /// One synchronous device scrub over the collection's CAM banks (also
  /// what the periodic worker runs when config.health.scrub_period > 0).
  std::vector<obs::health::BankHealth> scrub_collection(const std::string& name);
  /// Test/maintenance hook: injects retention drift into the collection's
  /// CAM cells under its exclusive lock and bumps its generation (so
  /// in-flight canaries go stale rather than mixing pre/post-drift ground
  /// truth). Returns the number of cells perturbed.
  std::size_t inject_drift(const std::string& name, double sigma, std::uint64_t seed);

  // --- Persistence --------------------------------------------------------

  /// Writes one v4 snapshot per collection plus a MANIFEST into `dir`
  /// (created if needed). Returns the number of collections saved.
  std::size_t save(const std::string& dir) const;

  /// Restores every collection a MANIFEST names. Throws
  /// serve::io::SnapshotError on a malformed manifest or snapshot and
  /// std::invalid_argument when a manifest name collides with a live
  /// collection.
  std::size_t load(const std::string& dir);

  /// Idempotent: stop accepting, drain accepted requests, join workers.
  void stop();

 private:
  static constexpr std::size_t kLatencyWindow = 4096;

  /// One tenant: the collection plus its lock, its request stats and
  /// in-flight count, and its {collection=name}-labeled instruments.
  /// Shared-ptr'd so queued work and drops race safely.
  struct Entry {
    Entry(const std::string& entry_name, std::unique_ptr<Collection> entry_collection);

    std::string name;
    std::unique_ptr<Collection> collection;  ///< Null once dropped.
    /// lock-order: standalone - never held together with any other lock
    /// (callers resolve the entry via registry_mutex_ FIRST, release it,
    /// THEN lock this). shared = query, exclusive = mutate.
    mutable std::shared_mutex mutex;
    /// mcam_store_* request stats; in_flight is the admission cap's count.
    serve::Tenant tenant;
    obs::Gauge rows_gauge;  ///< mcam_store_rows{collection=name}.
    // Health monitors (obs/health), declared last so they are destroyed
    // (their workers stopped/joined) before the state their callbacks
    // read; monitor borrows canary, so it is declared after it (destroyed
    // first). Their callbacks only ever take this entry's mutex (shared),
    // which drop_collection releases before stopping them.
    std::unique_ptr<obs::health::RecallCanary> canary;
    std::unique_ptr<obs::health::HealthMonitor> monitor;
  };

  struct Task {
    std::shared_ptr<Entry> entry;
    std::vector<float> query;
    std::size_t k = 1;
    Predicate predicate;
    std::promise<StoreResponse> promise;
    std::chrono::steady_clock::time_point submitted;
    std::unique_ptr<obs::Trace> trace;  ///< Sampled stage trace (null = off).
  };

  /// Runs the task on a worker (trace context, routing, canary, stats).
  [[nodiscard]] StoreResponse execute(Task& task) const;
  [[nodiscard]] std::shared_ptr<Entry> find_entry(const std::string& name) const;
  /// find_entry or throw std::invalid_argument naming the collection.
  [[nodiscard]] std::shared_ptr<Entry> require_entry(const std::string& name) const;
  /// Builds the entry for `collection` (instruments, rows gauge, health)
  /// and registers it under `name`; throws std::invalid_argument when the
  /// name is taken (`context` prefixes the message).
  void register_entry(const std::string& name, std::unique_ptr<Collection> collection,
                      const char* context);
  /// Attaches the entry's recall canary + health monitor (config_.canary /
  /// config_.health), both labeled {collection=name}. The callbacks
  /// capture the raw Entry pointer: the monitors are members of the entry
  /// and are stopped before it dies, so the pointer cannot dangle.
  void attach_health(Entry& entry) const;
  /// Updates the entry's live-rows gauge; call with its lock held.
  static void update_rows_gauge(Entry& entry);

  ManagerConfig config_;
  obs::TraceSampler trace_sampler_;

  // Lock hierarchy (stress-tested by tests/stress/ and watched by TSan's
  // deadlock detector in CI). The only nesting is the shared executor's
  //   queue lock -> an entry's RequestStats lock   (admission, runtime.hpp)
  // - every other lock (registry_mutex_, Entry::mutex) is taken and
  // released on its own: lookups copy the shared_ptr out of the registry
  // before touching the entry, and workers drop the queue lock before
  // executing.

  /// lock-order: standalone - guards only the name -> Entry map; never
  /// held while acquiring any other lock (entries are shared_ptr-copied
  /// out first).
  mutable std::shared_mutex registry_mutex_;
  std::map<std::string, std::shared_ptr<Entry>> entries_;

  /// Declared last: destroyed (workers joined, queued tasks drained)
  /// first.
  serve::Executor<Task, StoreResponse> executor_;
};

}  // namespace mcam::store
