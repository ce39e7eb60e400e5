#include "serve/service.hpp"

#include <algorithm>
#include <bit>
#include <optional>

namespace mcam::serve {

bool QueryService::CacheKey::operator==(const CacheKey& other) const {
  if (k != other.k || query.size() != other.query.size()) return false;
  for (std::size_t i = 0; i < query.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(query[i]) !=
        std::bit_cast<std::uint32_t>(other.query[i])) {
      return false;
    }
  }
  return true;
}

std::size_t QueryService::CacheKeyHash::operator()(const CacheKey& key) const noexcept {
  // FNV-1a over the query's float bit patterns and k: bit-exact queries
  // hash equal, which is the only equality the cache promises.
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t value) {
    hash ^= value;
    hash *= 0x100000001b3ULL;
  };
  mix(key.k);
  for (float f : key.query) mix(std::bit_cast<std::uint32_t>(f));
  return static_cast<std::size_t>(hash);
}

QueryService::QueryService(search::NnIndex& index, QueryServiceConfig config)
    : index_(index),
      config_(config),
      id_bound_(index.size()),
      cache_hits_counter_(obs::registry().counter("mcam_serve_cache_hits_total")),
      trace_sampler_(obs::effective_trace_sample(config.trace_sample)),
      tenant_("mcam_serve", {}, config.latency_window),
      // Online health monitoring (obs/health). The canary's ground truth
      // runs on the canary's own worker under a *shared* index lock over
      // every id ever added, and bails out as stale when the cache
      // generation moved past the serving-time stamp.
      canary_(std::make_unique<obs::health::RecallCanary>(
          config.canary,
          [this](std::span<const float> query, std::size_t k, std::uint64_t generation)
              -> std::optional<std::vector<std::size_t>> {
            std::shared_lock<std::shared_mutex> lock(index_mutex_);
            if (cache_generation_.load(std::memory_order_acquire) != generation) {
              return std::nullopt;
            }
            return exact_neighbor_ids(index_, query, k, id_bound_);
          })),
      monitor_(std::make_unique<obs::health::HealthMonitor>(
          config.health,
          [this] {
            std::shared_lock<std::shared_mutex> lock(index_mutex_);
            return obs::health::scrub_index(index_);
          },
          canary_.get())),
      executor_({.owner = "QueryService",
                 .workers = config.workers,
                 .queue_capacity = config.queue_capacity,
                 .tenant_cap = std::nullopt,
                 .admission_span = false},
                [this](Request& request) { return execute(request); }) {}

QueryService::~QueryService() { stop(); }

void QueryService::stop() {
  executor_.stop();
  // After the pool: no new canary samples can arrive, so the canary can
  // drain its queue and join; the periodic scrubber just wakes and exits.
  monitor_->stop();
  canary_->stop();
}

std::future<QueryResponse> QueryService::submit(std::vector<float> query, std::size_t k) {
  // One k-convention everywhere (search/index.hpp): k = 0 is 1-NN.
  k = std::max<std::size_t>(k, 1);
  std::size_t cache_k = k;
  if (config_.cache_capacity > 0) {
    // The *cache key* additionally clamps k to the index size, so every
    // spelling of the same logical query (k = 0 vs 1, or any two k's past
    // the index size) shares one entry. Only the key is clamped - the
    // request executes with the raw k and the engine clamps at execution
    // time, so a query racing a concurrent add still returns a
    // serially-correct answer. This submit-time clamp feeds only the
    // probe (stale at worst = a miss); the insert key is re-derived by
    // the worker from the execution-time size, under the same lock that
    // samples the cache generation, so a key can never disagree with the
    // result cached under it.
    std::shared_lock<std::shared_mutex> lock(index_mutex_);
    if (index_.size() > 0) cache_k = std::min(cache_k, index_.size());
  }
  Request request{std::move(query), k, {}, std::chrono::steady_clock::now(), nullptr};
  std::future<QueryResponse> future = request.promise.get_future();

  // Stage-trace sampling decision (1-in-N; off by default). The trace
  // rides the request: cache-probe is recorded here on the caller thread,
  // queue-wait and execution by the worker that picks the request up.
  if (trace_sampler_.should_sample()) {
    request.trace = std::make_unique<obs::Trace>("serve.query");
  }

  // A stopped service skips the probe and lets the executor answer
  // kShutdown uniformly, never a (possibly stale, no-longer-invalidated)
  // cache hit.
  if (config_.cache_capacity > 0 && !executor_.stopped()) {
    obs::TraceSpan probe_span(request.trace.get(), "cache-probe");
    const bool hit = try_cache(request.query, cache_k, request.promise, request.submitted);
    probe_span.note("hit", hit ? 1.0 : 0.0);
    probe_span.close();
    if (hit) {
      tenant_.stats.on_trace(std::move(request.trace));
      return future;
    }
  }
  executor_.submit(std::move(request), tenant_);
  return future;
}

QueryResponse QueryService::query_one(std::vector<float> query, std::size_t k) {
  return submit(std::move(query), k).get();
}

void QueryService::add(std::span<const std::vector<float>> rows,
                       std::span<const int> labels) {
  std::unique_lock<std::shared_mutex> lock(index_mutex_);
  // Invalidate even when the index throws: a sharded add can program some
  // banks before a later bank fails, so any mutation *attempt* must bump
  // the generation or stale cache entries would outlive a partial change.
  // id_bound_ likewise bumps unconditionally - a partial add may have
  // assigned some of the ids, and over-approximating is harmless.
  id_bound_ += rows.size();
  try {
    index_.add(rows, labels);
  } catch (...) {
    invalidate_cache();
    throw;
  }
  invalidate_cache();
}

bool QueryService::erase(std::size_t id) {
  std::unique_lock<std::shared_mutex> lock(index_mutex_);
  bool erased = false;
  try {
    erased = index_.erase(id);
  } catch (...) {
    invalidate_cache();  // Unconditional: makes the safety argument one line.
    throw;
  }
  invalidate_cache();
  return erased;
}

std::size_t QueryService::size() const {
  std::shared_lock<std::shared_mutex> lock(index_mutex_);
  return index_.size();
}

QueryResponse QueryService::execute(Request& request) {
  QueryResponse response;
  std::uint64_t generation = 0;
  std::size_t cache_k = request.k;
  {
    // Install the request's trace as this worker thread's current trace
    // so the engine's stage spans (encode / coarse-sweep / fine-rerank /
    // ...) attach to it without any engine-visible plumbing.
    obs::ScopedTraceContext trace_context(request.trace.get());
    obs::TraceSpan execute_span(request.trace.get(), "execute");
    try {
      std::shared_lock<std::shared_mutex> lock(index_mutex_);
      generation = cache_generation_.load(std::memory_order_acquire);
      // The insert key clamps k to the size the query actually executed
      // against - read under the same lock as the generation, so the key
      // always matches the cached result's neighbor count.
      if (index_.size() > 0) cache_k = std::min(cache_k, index_.size());
      response.result = index_.query_one(request.query, request.k);
      response.status = RequestStatus::kOk;
    } catch (const std::exception& error) {
      response.status = RequestStatus::kFailed;
      response.error = error.what();
    }
    if (response.status == RequestStatus::kOk) {
      const search::QueryTelemetry& telemetry = response.result.telemetry;
      execute_span.tag(telemetry.kernel);
      execute_span.note("candidates", static_cast<double>(telemetry.candidates));
      execute_span.note("energy_j", telemetry.energy_j);
    }
  }

  const bool ok = response.status == RequestStatus::kOk;
  // Before cache_insert, which consumes request.query.
  if (ok) sample_canary(*canary_, request.query, request.k, response.result, generation);
  if (ok && config_.cache_capacity > 0) {
    cache_insert(std::move(request.query), cache_k, response.result, generation);
  }
  tenant_.stats.on_complete(ok, request.submitted, ok ? &response.result.telemetry : nullptr);
  return response;
}

bool QueryService::try_cache(const std::vector<float>& query, std::size_t k,
                             std::promise<QueryResponse>& promise,
                             std::chrono::steady_clock::time_point submitted) {
  CacheKey key{query, k};
  QueryResponse response;
  bool hit = false;
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);  // Touch: most recent first.
      response.result = it->second->second;
      response.cache_hit = true;
      response.status = RequestStatus::kOk;
      hit = true;
    }
  }
  // Booked after the cache lock is released: probes of unrelated keys
  // never contend on the stats lock through the cache.
  tenant_.stats.on_cache_lookup(hit, submitted);
  if (!hit) return false;
  cache_hits_counter_.inc();
  promise.set_value(std::move(response));
  return true;
}

void QueryService::cache_insert(std::vector<float> query, std::size_t k,
                                const search::QueryResult& result,
                                std::uint64_t generation) {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  // A mutation may have invalidated between query execution and this
  // insert; caching the stale result could serve a tombstoned row later.
  if (generation != cache_generation_.load(std::memory_order_acquire)) return;
  CacheKey key{std::move(query), k};
  const auto it = cache_.find(key);
  if (it != cache_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    it->second->second = result;
    return;
  }
  lru_.emplace_front(key, result);
  cache_.emplace(std::move(key), lru_.begin());
  while (cache_.size() > config_.cache_capacity) {
    cache_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

void QueryService::invalidate_cache() {
  cache_generation_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    cache_.clear();
    lru_.clear();
  }
  tenant_.stats.on_invalidation();
}

obs::health::CanaryReport QueryService::canary_report() const {
  return canary_->report();
}

void QueryService::canary_drain() { canary_->drain(); }

obs::health::HealthReport QueryService::health_report() const {
  return monitor_->report();
}

std::vector<obs::health::BankHealth> QueryService::scrub_health() {
  return monitor_->scrub_now();
}

std::size_t QueryService::inject_drift(double sigma, std::uint64_t seed) {
  std::unique_lock<std::shared_mutex> lock(index_mutex_);
  const std::size_t cells = obs::health::inject_drift(index_, sigma, seed);
  // Drift changes match outcomes, so cached results are stale - and the
  // generation bump also marks in-flight canaries stale, keeping the
  // recall estimate from mixing pre- and post-drift ground truth.
  invalidate_cache();
  return cells;
}

ServiceStats QueryService::stats() const {
  ServiceStats out;
  tenant_.stats.fill(out);
  out.workers = executor_.workers();
  out.queue_depth = executor_.queue_depth();
  return out;
}

}  // namespace mcam::serve
