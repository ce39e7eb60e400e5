// Observability walkthrough: run a traced serving workload with the
// recall canary on, then dump what the obs layer saw - the metrics
// registry in Prometheus text and JSON-lines form, the per-query stage
// traces from the global sink, and the online-health snapshot (canary
// recall estimate + device scrub) as one JSON object.
//
// This is the wiring a real deployment would hang a scrape endpoint and a
// log shipper on:
//
//   GET /metrics  ->  obs::to_prometheus(obs::snapshot())
//   trace log     ->  obs::TraceSink::global().to_jsonl()
//   GET /health   ->  obs::to_json(service.health_report())
#include "obs/exporters.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "search/factory.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"

#include <cstdio>
#include <vector>

int main() {
  using namespace mcam;

  constexpr std::size_t kRows = 512;
  constexpr std::size_t kFeatures = 16;
  constexpr std::size_t kRequests = 96;
  constexpr std::size_t kTopK = 3;

  Rng rng{42};
  std::vector<std::vector<float>> rows(kRows, std::vector<float>(kFeatures));
  std::vector<int> labels(kRows);
  for (std::size_t r = 0; r < kRows; ++r) {
    for (auto& v : rows[r]) v = static_cast<float>(rng.normal());
    labels[r] = static_cast<int>(r % 8);
  }

  search::EngineConfig config;
  config.num_features = kFeatures;
  auto index =
      search::make_index("refine:coarse_bits=48,probes=2,candidate_factor=8,fine=mcam2", config);
  index->add(rows, labels);

  // The serving layer owns the sampling rate: trace 1 query in 8.
  serve::QueryServiceConfig service_config;
  service_config.trace_sample = 8;
  // Recall canary: re-execute 1 in 4 completed queries through the exact
  // fine path on a background worker and score the served answer.
  service_config.canary.sample_every = 4;
  serve::QueryService service{*index, service_config};
  for (std::size_t i = 0; i < kRequests; ++i) {
    std::vector<float> query(kFeatures);
    for (auto& v : query) v = static_cast<float>(rng.normal());
    (void)service.query_one(std::move(query), kTopK);
  }
  service.canary_drain();       // Settle the canary queue before reporting.
  (void)service.scrub_health(); // One device scrub so the report has banks.
  const serve::ServiceStats stats = service.stats();

  std::printf("=== served %zu queries, traced %llu (1 in %zu) ===\n\n", stats.completed,
              static_cast<unsigned long long>(stats.traces_recorded),
              service_config.trace_sample);

  std::printf("--- metrics: Prometheus text exposition ---\n%s\n",
              obs::to_prometheus(obs::snapshot()).c_str());
  std::printf("--- metrics: JSON lines ---\n%s\n", obs::to_jsonl(obs::snapshot()).c_str());
  std::printf("--- traces: JSON lines (global sink) ---\n%s\n",
              obs::TraceSink::global().to_jsonl().c_str());
  std::printf("--- health: canary + device scrub (JSON) ---\n%s\n",
              obs::to_json(service.health_report()).c_str());
  return 0;
}
