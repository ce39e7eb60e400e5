#include "serve/runtime.hpp"

#include <numeric>

namespace mcam::serve {

namespace {

obs::Labels with(obs::Labels labels, std::string key, std::string value) {
  labels.emplace_back(std::move(key), std::move(value));
  return labels;
}

}  // namespace

RequestStats::RequestStats(const std::string& prefix, obs::Labels labels,
                           std::size_t window)
    : labels_(std::move(labels)),
      started_(Clock::now()),
      latency_ms_(window),
      margin_(window) {
  obs::Registry& registry = obs::registry();
  const std::string requests = prefix + "_requests_total";
  requests_ok_ = registry.counter(requests, with(labels_, "outcome", "ok"));
  requests_failed_ = registry.counter(requests, with(labels_, "outcome", "failed"));
  requests_rejected_ = registry.counter(requests, with(labels_, "outcome", "rejected"));
  latency_hist_ = registry.histogram(prefix + "_latency_ms",
                                     obs::default_latency_buckets_ms(), labels_);
  probes_ = registry.counter("mcam_coarse_probes_total", labels_);
  energy_hist_ = registry.histogram("mcam_query_energy_j", obs::default_energy_buckets_j(),
                                    labels_);
}

void RequestStats::on_rejected() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.rejected;
  }
  requests_rejected_.inc();
}

void RequestStats::on_accepted(std::size_t depth) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.accepted;
  counters_.queue_depth_peak = std::max(counters_.queue_depth_peak, depth);
}

void RequestStats::on_complete(bool ok, Clock::time_point submitted,
                               const search::QueryTelemetry* telemetry,
                               const FilterOutcome* filter) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ok) {
    ++counters_.completed;
    requests_ok_.inc();
  } else {
    ++counters_.failed;
    requests_failed_.inc();
  }
  record_latency_locked(submitted);
  if (telemetry != nullptr) {
    // Which kernel backend ranked the query, how many coarse probes it
    // spent, and what the energy model charged - the per-backend and
    // per-joule views the benches and the registry export. CAM engines
    // rank in-array and report no kernel backend; "none" keeps the
    // per-kernel breakdown total equal to the executed count without an
    // empty-string label.
    counters_.probes_total += telemetry->probes_used;
    counters_.energy_j_total += telemetry->energy_j;
    const char* kernel = *telemetry->kernel != '\0' ? telemetry->kernel : "none";
    ++counters_.kernel_queries[kernel];
    probes_.inc(telemetry->probes_used);
    energy_hist_.observe(telemetry->energy_j);
    kernel_counter_locked(kernel).inc();
    // Coarse nomination margins: only executed sweeps with a genuine
    // nomination cut count. A query whose candidate budget covered every
    // live row reports margin 0 meaning "nothing was excluded", not "zero
    // confidence". fine_candidates is the nominated count and
    // coarse_candidates = live_rows * probes_used, so a cut existed iff
    // nominated < live.
    if (telemetry->probes_used > 0 &&
        telemetry->fine_candidates * telemetry->probes_used <
            telemetry->coarse_candidates) {
      ++counters_.coarse_margin_queries;
      margin_.add(telemetry->coarse_margin);
    }
  }
  if (filter != nullptr) {
    ++counters_.filtered_queries;
    ++(filter->band ? counters_.band_queries : counters_.post_filter_queries);
    selectivity_sum_ += filter->selectivity;
  }
}

void RequestStats::on_cache_lookup(bool hit, Clock::time_point submitted) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.cache_lookups;
  if (!hit) return;
  ++counters_.accepted;
  ++counters_.completed;
  ++counters_.cache_hits;
  requests_ok_.inc();
  record_latency_locked(submitted);
}

void RequestStats::on_invalidation() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.invalidations;
}

void RequestStats::on_trace(std::unique_ptr<obs::Trace> trace) {
  if (!trace) return;
  obs::TraceSink::global().record(trace->finish());
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.traces_recorded;
}

void RequestStats::fill(ServiceStats& out) const {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out = counters_;
    out.latency_p50_ms = latency_ms_.percentile(50.0);
    out.latency_p95_ms = latency_ms_.percentile(95.0);
    out.latency_p99_ms = latency_ms_.percentile(99.0);
    out.coarse_margin_p50 = margin_.percentile(50.0);
    out.coarse_margin_p95 = margin_.percentile(95.0);
    out.coarse_margin_mean = margin_.mean();
    out.filter_selectivity_mean =
        out.filtered_queries > 0
            ? selectivity_sum_ / static_cast<double>(out.filtered_queries)
            : 0.0;
  }
  out.cache_hit_rate = out.cache_lookups > 0 ? static_cast<double>(out.cache_hits) /
                                                   static_cast<double>(out.cache_lookups)
                                             : 0.0;
  const double elapsed_s = std::chrono::duration<double>(Clock::now() - started_).count();
  out.throughput_qps =
      elapsed_s > 0.0 ? static_cast<double>(out.completed) / elapsed_s : 0.0;
}

void RequestStats::record_latency_locked(Clock::time_point submitted) {
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - submitted).count();
  latency_ms_.add(ms);
  latency_hist_.observe(ms);
}

obs::Counter& RequestStats::kernel_counter_locked(const char* kernel) {
  const auto [it, inserted] = kernel_counters_.try_emplace(kernel);
  if (inserted) {
    it->second = obs::registry().counter("mcam_queries_by_kernel_total",
                                         with(labels_, "kernel", kernel));
  }
  return it->second;
}

std::vector<std::size_t> exact_neighbor_ids(const search::NnIndex& index,
                                            std::span<const float> query, std::size_t k,
                                            std::size_t id_bound) {
  std::vector<std::size_t> ids(id_bound);
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  const search::QueryResult exact = index.query_subset(query, ids, k);
  std::vector<std::size_t> out;
  out.reserve(exact.neighbors.size());
  for (const search::Neighbor& neighbor : exact.neighbors) out.push_back(neighbor.index);
  return out;
}

void sample_canary(obs::health::RecallCanary& canary, std::span<const float> query,
                   std::size_t k, const search::QueryResult& served,
                   std::uint64_t generation) {
  if (!canary.should_sample()) return;
  std::vector<std::size_t> served_ids;
  served_ids.reserve(served.neighbors.size());
  for (const search::Neighbor& neighbor : served.neighbors) {
    served_ids.push_back(neighbor.index);
  }
  canary.enqueue({query.begin(), query.end()}, k, std::move(served_ids), generation);
}

}  // namespace mcam::serve
