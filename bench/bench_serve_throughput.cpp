// Serving micro-benchmark: snapshot restore latency vs cold rebuild, and
// QueryService throughput vs direct sequential queries.
//
// Asserts the serving invariants - restored index bit-identical to the
// original, every accepted service request identical to the direct query -
// and exits non-zero on divergence, so CI can run it as a smoke step next
// to bench_shard_scaling. Numbers are informational (this container may be
// single-core; the service pool shines on multi-core hosts).
#include "bench_common.hpp"

#include "search/factory.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"

#include <chrono>
#include <cstdio>
#include <future>
#include <vector>

int main(int argc, char** argv) {
  using namespace mcam;
  using Clock = std::chrono::steady_clock;

  constexpr std::size_t kRows = 1024;
  constexpr std::size_t kFeatures = 24;
  constexpr std::size_t kQueries = 64;
  constexpr std::size_t kTopK = 5;
  constexpr std::size_t kRequests = 512;
  const std::string kSpec = "sharded-mcam2:bank_rows=128";

  Rng rng{777};
  std::vector<std::vector<float>> rows(kRows, std::vector<float>(kFeatures));
  std::vector<int> labels(kRows);
  for (std::size_t r = 0; r < kRows; ++r) {
    for (auto& v : rows[r]) v = static_cast<float>(rng.normal());
    labels[r] = static_cast<int>(r % 10);
  }
  std::vector<std::vector<float>> queries(kQueries, std::vector<float>(kFeatures));
  for (auto& q : queries) {
    for (auto& v : q) v = static_cast<float>(rng.normal());
  }

  search::EngineConfig config;
  config.num_features = kFeatures;

  // Cold build vs warm restore.
  const auto cold_start = Clock::now();
  auto original = search::make_index(kSpec, config);
  original->add(rows, labels);
  const std::chrono::duration<double, std::milli> cold_ms = Clock::now() - cold_start;
  for (std::size_t id = 3; id < kRows; id += 29) (void)original->erase(id);

  const std::vector<std::uint8_t> blob = serve::save(*original, kSpec, config);
  const auto warm_start = Clock::now();
  auto restored = serve::load(blob);
  const std::chrono::duration<double, std::milli> warm_ms = Clock::now() - warm_start;

  const auto reference = original->query(queries, kTopK);
  const auto check = restored->query(queries, kTopK);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (check[i].label != reference[i].label ||
        check[i].neighbors.size() != reference[i].neighbors.size()) {
      std::fprintf(stderr, "FAIL: restored index diverges at query %zu\n", i);
      return 1;
    }
    for (std::size_t n = 0; n < check[i].neighbors.size(); ++n) {
      if (check[i].neighbors[n].index != reference[i].neighbors[n].index ||
          check[i].neighbors[n].distance != reference[i].neighbors[n].distance) {
        std::fprintf(stderr, "FAIL: restored neighbors diverge at query %zu\n", i);
        return 1;
      }
    }
  }

  // Direct sequential baseline.
  const auto direct_start = Clock::now();
  for (std::size_t i = 0; i < kRequests; ++i) {
    (void)restored->query_one(queries[i % kQueries], kTopK);
  }
  const std::chrono::duration<double> direct_s = Clock::now() - direct_start;

  // Service pool (cache off: measure the queue+pool, not memoization).
  serve::QueryServiceConfig service_config;
  service_config.queue_capacity = kRequests;
  serve::QueryService service{*restored, service_config};
  std::vector<std::future<serve::QueryResponse>> futures;
  futures.reserve(kRequests);
  const auto served_start = Clock::now();
  for (std::size_t i = 0; i < kRequests; ++i) {
    futures.push_back(service.submit(queries[i % kQueries], kTopK));
  }
  std::size_t ok = 0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const serve::QueryResponse response = futures[i].get();
    if (response.status != serve::RequestStatus::kOk) {
      std::fprintf(stderr, "FAIL: request %zu not served (status %d)\n", i,
                   static_cast<int>(response.status));
      return 1;
    }
    const auto& expect = reference[i % kQueries];
    if (response.result.label != expect.label ||
        response.result.neighbors.front().index != expect.neighbors.front().index) {
      std::fprintf(stderr, "FAIL: served result diverges at request %zu\n", i);
      return 1;
    }
    ++ok;
  }
  const std::chrono::duration<double> served_s = Clock::now() - served_start;
  const serve::ServiceStats stats = service.stats();

  std::printf("snapshot: %zu bytes | cold build %.1f ms -> warm restore %.1f ms (%.1fx)\n",
              blob.size(), cold_ms.count(), warm_ms.count(),
              cold_ms.count() / (warm_ms.count() > 0 ? warm_ms.count() : 1e-9));
  std::printf("direct:  %zu queries in %.3f s (%.0f qps)\n", kRequests, direct_s.count(),
              static_cast<double>(kRequests) / direct_s.count());
  std::printf("service: %zu queries in %.3f s (%.0f qps, %zu workers, p50 %.3f ms, "
              "p99 %.3f ms)\n",
              ok, served_s.count(), static_cast<double>(ok) / served_s.count(),
              stats.workers, stats.latency_p50_ms, stats.latency_p99_ms);
  // Energy column, sourced from the service-side telemetry aggregation
  // (ServiceStats::energy_j_total mirrors the mcam_query_energy_j
  // histogram sum in the metrics registry).
  const double joules_per_query =
      stats.completed > 0 ? stats.energy_j_total / static_cast<double>(stats.completed)
                          : 0.0;
  std::printf("energy:  %.3e J total, %.3e J/query, %zu coarse probes", stats.energy_j_total,
              joules_per_query, stats.probes_total);
  for (const auto& [kernel, count] : stats.kernel_queries) {
    std::printf(", %s x%zu", kernel.c_str(), count);
  }
  std::printf("\n");

  bench::BenchReport report{"serve_throughput", argc, argv};
  report.note("spec", kSpec);
  report.note("rows", std::to_string(kRows));
  report.note("requests", std::to_string(kRequests));
  report.metric("snapshot_bytes", static_cast<double>(blob.size()), "B");
  report.metric("cold_build", cold_ms.count(), "ms");
  report.metric("warm_restore", warm_ms.count(), "ms");
  report.metric("direct_qps", static_cast<double>(kRequests) / direct_s.count(), "1/s");
  report.metric("service_qps", static_cast<double>(ok) / served_s.count(), "1/s");
  report.metric("latency_p50", stats.latency_p50_ms, "ms");
  report.metric("latency_p99", stats.latency_p99_ms, "ms");
  report.metric("energy_per_query", joules_per_query, "J");
  report.write();

  std::printf("OK: restore bit-identical, %zu/%zu requests served identically\n", ok,
              kRequests);
  return 0;
}
