// The serving runtime both fronts share. serve::QueryService (one
// NnIndex) and store::CollectionManager (many collections) differ only in
// what a request does once a worker picks it up; everything around that
// lives here once:
//
//  - `Executor`: a bounded MPMC request queue drained by a fixed worker
//    pool. `submit` never blocks - a request is queued, or its promise
//    resolves at once with kRejected (a bound was hit; `error` names it)
//    or kShutdown (after stop()). That reject-with-status admission is
//    the backpressure contract: under overload clients see explicit
//    rejections they can retry against, never silent drops or unbounded
//    queueing. An optional per-tenant cap bounds how many requests one
//    tenant may have in flight, checked under the queue lock together
//    with the global bound.
//  - `RequestStats`: one tenant's ServiceStats counters, latency and
//    coarse-margin windows, and registry instruments. Every request event
//    is booked by exactly one call.
//  - The recall-canary helpers both fronts wire their health monitors
//    through.
#pragma once

#include "obs/health/health.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "search/batch.hpp"
#include "search/index.hpp"
#include "util/statistics.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace mcam::serve {

/// Terminal state of a submitted request.
enum class RequestStatus : std::uint8_t {
  kOk = 0,     ///< Completed; `result` is valid.
  kRejected,   ///< Admission control: a queue bound was full at submit time.
  kShutdown,   ///< The front was stopped before the request was accepted.
  kFailed,     ///< The index threw while executing; `error` has the message.
};

/// Cumulative serving telemetry (all counters since construction).
struct ServiceStats {
  std::size_t workers = 0;           ///< Resolved worker-pool size.
  std::size_t accepted = 0;          ///< Requests queued or cache-served.
  std::size_t rejected = 0;          ///< Full-queue rejections (reported, never dropped).
  std::size_t completed = 0;         ///< Futures resolved with kOk.
  std::size_t failed = 0;            ///< Futures resolved with kFailed.
  std::size_t cache_lookups = 0;     ///< Cache probes (cache enabled only).
  std::size_t cache_hits = 0;        ///< Probes answered from the cache.
  std::size_t invalidations = 0;     ///< Cache clears triggered by add/erase.
  std::size_t queue_depth = 0;       ///< Requests waiting right now.
  std::size_t queue_depth_peak = 0;  ///< High-water mark of the queue.
  double cache_hit_rate = 0.0;       ///< hits / lookups (0 when no lookups).
  double latency_p50_ms = 0.0;       ///< Submit-to-completion percentiles
  double latency_p95_ms = 0.0;       ///< over the sliding window.
  double latency_p99_ms = 0.0;
  double throughput_qps = 0.0;       ///< Completed requests / wall second.
  std::size_t coarse_margin_queries = 0;  ///< Executed queries whose coarse stage
                                          ///< actually cut the candidate set
                                          ///< (two-stage indexes; cache hits run no
                                          ///< sweep, and queries whose budget covered
                                          ///< every live row have no cut to measure -
                                          ///< neither is counted).
  double coarse_margin_mean = 0.0;  ///< Mean / percentiles of
  double coarse_margin_p50 = 0.0;   ///< QueryTelemetry::coarse_margin [S] over the
  double coarse_margin_p95 = 0.0;   ///< sliding window - the margin distribution an
                                    ///< adaptive candidate_factor policy would read.
  std::size_t filtered_queries = 0;    ///< Completed queries that carried a metadata
                                       ///< predicate. Filled by the store layer's
                                       ///< per-collection stats
                                       ///< (store::CollectionManager); QueryService
                                       ///< itself serves unfiltered queries and
                                       ///< leaves the filter fields zero.
  std::size_t band_queries = 0;        ///< ... answered via the TCAM-pushed tag band.
  std::size_t post_filter_queries = 0; ///< ... answered via the query_subset
                                       ///< post-filter.
  double filter_selectivity_mean = 0.0;  ///< Mean predicate selectivity
                                         ///< (matching / live rows) over the
                                         ///< filtered queries.
  std::map<std::string, std::size_t> kernel_queries;  ///< Executed queries by
                                         ///< QueryTelemetry::kernel backend
                                         ///< ("scalar", "avx2", "avx2+int8",
                                         ///< ...; "" = engines that do not rank
                                         ///< through distance/kernels/). Cache
                                         ///< hits run no kernel and are not
                                         ///< counted.
  std::size_t probes_total = 0;      ///< Sum of QueryTelemetry::probes_used
                                     ///< over executed queries.
  double energy_j_total = 0.0;       ///< Sum of QueryTelemetry::energy_j over
                                     ///< executed queries [J] - joules/query =
                                     ///< energy_j_total / completed-cache_hits.
  std::uint64_t traces_recorded = 0; ///< Stage traces this front sampled
                                     ///< into obs::TraceSink::global().
};

/// How a completed filtered query was routed (store layer).
struct FilterOutcome {
  bool band = false;         ///< Served via the TCAM tag band, else post-filtered.
  double selectivity = 0.0;  ///< Matching / live rows.
};

/// One tenant's request accounting: the ServiceStats counters, the
/// latency and coarse-margin windows, and the registry instruments.
/// Thread-safe; each event is booked under one acquisition of its mutex.
class RequestStats {
 public:
  using Clock = std::chrono::steady_clock;

  /// Resolves `<prefix>_requests_total{labels, outcome}` and
  /// `<prefix>_latency_ms{labels}`, plus the per-query series shared by
  /// every front - mcam_coarse_probes_total, mcam_query_energy_j and
  /// mcam_queries_by_kernel_total{kernel} - carrying the same labels.
  /// `window` sizes the latency and margin windows (0 is treated as 1).
  RequestStats(const std::string& prefix, obs::Labels labels, std::size_t window);

  void on_rejected();
  /// An admitted request; `depth` is the occupancy of the bound it was
  /// admitted against, feeding queue_depth_peak.
  void on_accepted(std::size_t depth);
  /// A finished request. `telemetry` is the executed query's (null for
  /// failures); `filter` its predicate routing (null when unfiltered).
  void on_complete(bool ok, Clock::time_point submitted,
                   const search::QueryTelemetry* telemetry,
                   const FilterOutcome* filter = nullptr);
  /// A result-cache probe; a hit is an accepted, completed request.
  void on_cache_lookup(bool hit, Clock::time_point submitted);
  void on_invalidation();
  /// Finishes a sampled trace (null = not sampled) into
  /// obs::TraceSink::global() and counts it.
  void on_trace(std::unique_ptr<obs::Trace> trace);

  /// Copies the counters and computes the derived fields (percentiles,
  /// hit rate, throughput, mean selectivity). `workers` and `queue_depth`
  /// are the front's to fill.
  void fill(ServiceStats& out) const;

 private:
  /// Appends to the latency window and histogram; requires mutex_ held.
  void record_latency_locked(Clock::time_point submitted);
  /// The lazily resolved mcam_queries_by_kernel_total handle for `kernel`
  /// (a static string, so pointer keying is exact); requires mutex_ held.
  obs::Counter& kernel_counter_locked(const char* kernel);

  const obs::Labels labels_;
  const Clock::time_point started_;

  /// lock-order: leaf (taken under an Executor's queue lock on admission;
  /// acquires nothing while held except the registry shard on the first
  /// query of a new kernel backend).
  mutable std::mutex mutex_;
  ServiceStats counters_;        ///< Derived fields unused here.
  PercentileWindow latency_ms_;  ///< Sliding window of completion latencies.
  PercentileWindow margin_;      ///< Window of coarse nomination margins [S].
  double selectivity_sum_ = 0.0; ///< Over the filtered queries.
  std::unordered_map<const char*, obs::Counter> kernel_counters_;

  // Registry instruments, resolved once (the hot path is one relaxed
  // atomic per handle, no lock, no string hash).
  obs::Counter requests_ok_;
  obs::Counter requests_failed_;
  obs::Counter requests_rejected_;
  obs::Counter probes_;
  obs::Histogram latency_hist_;
  obs::Histogram energy_hist_;
};

/// One admission domain: the stats its requests book into and its
/// in-flight count, which a per-tenant cap bounds.
struct Tenant {
  Tenant(const std::string& prefix, obs::Labels labels, std::size_t window)
      : stats(prefix, std::move(labels), window) {}

  RequestStats stats;
  /// Admitted requests whose futures have not resolved (queued or
  /// executing). Decremented before the promise is fulfilled, so a
  /// resolved future never still counts here.
  std::atomic<std::size_t> in_flight{0};
};

struct ExecutorOptions {
  const char* owner = "";          ///< The front, for messages ("QueryService").
  std::size_t workers = 0;         ///< 0 = search::default_worker_count().
  std::size_t queue_capacity = 0;  ///< Global queue bound; must be > 0.
  /// Per-tenant in-flight bound (the store's collection_queue_cap);
  /// nullopt = none, must be > 0 when set.
  std::optional<std::size_t> tenant_cap;
  /// Record an "admission" span on sampled traces (the store explains its
  /// two-level decision; the service's traces carry no such span).
  bool admission_span = false;
};

/// Bounded queue + worker pool. `Task` carries `std::promise<Response>
/// promise`, `Clock::time_point submitted` and `std::unique_ptr<obs::Trace>
/// trace`; `Response` has `status` and `error`. A worker records the
/// queue-wait span, runs the task, finishes its trace, decrements the
/// tenant's in-flight count and only then fulfils the promise.
template <typename Task, typename Response>
class Executor {
 public:
  using Run = std::function<Response(Task&)>;

  /// Throws std::invalid_argument naming the field when a bound is 0.
  Executor(ExecutorOptions options, Run run)
      : options_(options), run_(std::move(run)) {
    const std::string owner = options_.owner;
    if (options_.queue_capacity == 0) {
      throw std::invalid_argument{owner + ": queue_capacity must be > 0"};
    }
    if (options_.tenant_cap == std::size_t{0}) {
      throw std::invalid_argument{owner + ": collection_queue_cap must be > 0"};
    }
    worker_count_ = options_.workers != 0 ? options_.workers : search::default_worker_count();
    workers_.reserve(worker_count_);
    for (std::size_t w = 0; w < worker_count_; ++w) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  /// Stops accepting, drains every accepted task, joins the workers.
  ~Executor() { stop(); }
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Queues `task` for `tenant` (which must outlive it), or resolves its
  /// promise with kShutdown / kRejected. Never blocks.
  void submit(Task task, Tenant& tenant) {
    const Admission admission = admit(task, tenant);
    if (admission == Admission::kAccepted) {
      cv_.notify_one();
      return;
    }
    // A sampled trace of a refused request is dropped with the task:
    // there is no execution to explain.
    Response response;
    if (admission == Admission::kStopped) {
      response.status = RequestStatus::kShutdown;
      response.error = std::string(options_.owner) + " stopped";
    } else {
      tenant.stats.on_rejected();
      response.status = RequestStatus::kRejected;
      response.error =
          admission == Admission::kQueueFull
              ? "queue full (queue_capacity " + std::to_string(options_.queue_capacity) + ")"
              : "collection in-flight cap reached (collection_queue_cap " +
                    std::to_string(options_.tenant_cap.value_or(0)) + ")";
    }
    task.promise.set_value(std::move(response));
  }

  /// True once stop() began; later submits resolve kShutdown.
  [[nodiscard]] bool stopped() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stopping_;
  }

  /// Tasks waiting in the queue right now (not counting executing ones).
  [[nodiscard]] std::size_t queue_depth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
  }

  [[nodiscard]] std::size_t workers() const noexcept { return worker_count_; }

  /// Idempotent: stop accepting, drain accepted tasks, join the workers.
  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
  }

 private:
  struct Slot {
    Task task;
    Tenant* tenant = nullptr;
  };

  enum class Admission : std::uint8_t { kAccepted, kStopped, kQueueFull, kTenantFull };

  /// The admission decision under the queue lock; moves `task` into the
  /// queue only when accepted.
  Admission admit(Task& task, Tenant& tenant) {
    obs::TraceSpan span(options_.admission_span ? task.trace.get() : nullptr, "admission");
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return Admission::kStopped;
    if (queue_.size() >= options_.queue_capacity) return Admission::kQueueFull;
    if (options_.tenant_cap && tenant.in_flight.load() >= *options_.tenant_cap) {
      return Admission::kTenantFull;
    }
    const std::size_t in_flight = tenant.in_flight.fetch_add(1) + 1;
    // queue_depth_peak tracks the bound that applies: the tenant's
    // in-flight count under a tenant cap, else the global queue.
    tenant.stats.on_accepted(options_.tenant_cap ? in_flight : queue_.size() + 1);
    // Closed before the task is queued, so it never races the worker
    // finishing the trace.
    span.note("queue_depth", static_cast<double>(queue_.size()));
    span.close();
    queue_.push_back(Slot{std::move(task), &tenant});
    return Admission::kAccepted;
  }

  void worker_loop() {
    for (;;) {
      Slot slot;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping_ and fully drained.
        slot = std::move(queue_.front());
        queue_.pop_front();
      }
      Task& task = slot.task;
      if (task.trace) {
        // Synthetic span for the time the task sat in the queue: it
        // already elapsed, so it is recorded with explicit timestamps
        // rather than an RAII scope. Clamped: `submitted` is stamped just
        // before the trace's epoch.
        obs::SpanRecord wait;
        wait.name = "queue-wait";
        wait.start_ms = std::max(0.0, std::chrono::duration<double, std::milli>(
                                          task.submitted - task.trace->started())
                                          .count());
        wait.elapsed_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - task.submitted)
                              .count();
        task.trace->add(std::move(wait));
      }
      Response response = run_(task);
      slot.tenant->stats.on_trace(std::move(task.trace));
      slot.tenant->in_flight.fetch_sub(1);
      task.promise.set_value(std::move(response));
    }
  }

  const ExecutorOptions options_;
  const Run run_;
  std::size_t worker_count_ = 0;

  /// lock-order: first (before RequestStats' mutex on the admission path;
  /// never held while a task runs, so never with an index or entry lock).
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Slot> queue_;
  bool stopping_ = false;

  std::vector<std::thread> workers_;  ///< Last: started once the rest exists.
};

// --- Recall-canary wiring -------------------------------------------------

/// Canary ground truth: the ids query_subset ranks over every id in
/// [0, id_bound). Tombstoned and never-added ids are ignored by contract,
/// so the bound only has to over-approximate. Run under the owner's
/// shared lock.
[[nodiscard]] std::vector<std::size_t> exact_neighbor_ids(const search::NnIndex& index,
                                                          std::span<const float> query,
                                                          std::size_t k,
                                                          std::size_t id_bound);

/// One executed query's canary draw: on a sampling win, copies the query
/// and the served ids onto the canary's queue (bounded, drop-on-full -
/// never blocks). One constant-false branch when sampling is off.
void sample_canary(obs::health::RecallCanary& canary, std::span<const float> query,
                   std::size_t k, const search::QueryResult& served,
                   std::uint64_t generation);

}  // namespace mcam::serve
