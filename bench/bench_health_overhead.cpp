// Online-health overhead gate: canaries OFF must be (near) free, and the
// drift scrubber must separate a drifted device from a clean one.
//
// Three checks, all hard failures for CI:
//   1. Bit-identity: results served with canary sampling off (the
//      default) are identical (indices, distances, labels, telemetry) to
//      querying the index directly. Health monitors observe the
//      pipeline; they must never steer it.
//   2. Disabled-path cost gate: with sampling off the per-query cost is
//      exactly one RecallCanary::should_sample() call - a constant-false
//      branch, no ticket draw, no lock. The gate asserts this computed
//      cost is <= 2% of the measured per-query time (computing the bound
//      instead of diffing two noisy end-to-end timings keeps the gate
//      meaningful on loaded CI runners).
//   3. Detection smoke: a clean scrub raises no drift alarm; after
//      inject_drift the next scrub fires mcam_health_alarms_total{kind=
//      drift} - and the clean run's report stays all-quiet.
#include "bench_common.hpp"

#include "obs/health/health.hpp"
#include "search/factory.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

double min_of_reps(std::size_t reps, const std::function<double()>& run) {
  double best = run();
  for (std::size_t r = 1; r < reps; ++r) best = std::min(best, run());
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcam;

  constexpr std::size_t kRows = 2048;
  constexpr std::size_t kFeatures = 32;
  constexpr std::size_t kQueries = 64;
  constexpr std::size_t kTopK = 5;
  constexpr std::size_t kReps = 5;
  constexpr std::size_t kSampleLoops = 1 << 20;
  constexpr double kDriftSigma = 0.5;  // Far past any level window width.
  const std::string kSpec =
      "refine:coarse_bits=64,probes=2,candidate_factor=8,fine=mcam2";

  Rng rng{2026};
  std::vector<std::vector<float>> rows(kRows, std::vector<float>(kFeatures));
  std::vector<int> labels(kRows);
  for (std::size_t r = 0; r < kRows; ++r) {
    for (auto& v : rows[r]) v = static_cast<float>(rng.normal());
    labels[r] = static_cast<int>(r % 16);
  }
  std::vector<std::vector<float>> queries(kQueries, std::vector<float>(kFeatures));
  for (auto& q : queries) {
    for (auto& v : q) v = static_cast<float>(rng.normal());
  }

  search::EngineConfig config;
  config.num_features = kFeatures;
  auto index = search::make_index(kSpec, config);
  index->add(rows, labels);

  // --- 1. Bit-identity: canary-off service vs direct queries --------------
  std::vector<search::QueryResult> reference;
  reference.reserve(kQueries);
  for (const auto& q : queries) reference.push_back(index->query_one(q, kTopK));

  {
    serve::QueryServiceConfig service_config;
    service_config.workers = 1;  // Deterministic completion order.
    serve::QueryService service{*index, service_config};
    for (std::size_t i = 0; i < kQueries; ++i) {
      const serve::QueryResponse response = service.query_one(queries[i], kTopK);
      const search::QueryResult& expect = reference[i];
      bool same = response.status == serve::RequestStatus::kOk &&
                  response.result.label == expect.label &&
                  response.result.neighbors.size() == expect.neighbors.size() &&
                  response.result.telemetry.energy_j == expect.telemetry.energy_j;
      for (std::size_t n = 0; same && n < expect.neighbors.size(); ++n) {
        same = response.result.neighbors[n].index == expect.neighbors[n].index &&
               response.result.neighbors[n].distance == expect.neighbors[n].distance;
      }
      if (!same) {
        std::fprintf(stderr, "FAIL: canary-off served query %zu diverges from direct\n", i);
        return 1;
      }
    }
    const obs::health::CanaryReport canary = service.canary_report();
    if (canary.sampled != 0 || canary.executed != 0) {
      std::fprintf(stderr, "FAIL: canary-off service sampled %llu queries\n",
                   static_cast<unsigned long long>(canary.sampled));
      return 1;
    }
  }

  // --- 2. Computed disabled-path gate -------------------------------------
  const double query_ns = min_of_reps(kReps, [&] {
    const auto start = Clock::now();
    for (const auto& q : queries) (void)index->query_one(q, kTopK);
    const std::chrono::duration<double, std::nano> ns = Clock::now() - start;
    return ns.count() / static_cast<double>(kQueries);
  });

  // Cost of one disabled should_sample(): the canary has no ground truth
  // and sample_every = 0, so the call is a constant-false branch.
  obs::health::RecallCanary disabled{obs::health::CanaryOptions{}, nullptr};
  const double sample_ns = min_of_reps(kReps, [&] {
    std::size_t wins = 0;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < kSampleLoops; ++i) {
      wins += disabled.should_sample() ? 1 : 0;
    }
    const std::chrono::duration<double, std::nano> ns = Clock::now() - start;
    if (wins != 0) std::fprintf(stderr, "unexpected disabled-canary sample win\n");
    return ns.count() / static_cast<double>(kSampleLoops);
  });
  const double off_pct = query_ns > 0.0 ? 100.0 * sample_ns / query_ns : 0.0;

  // --- 3. Detection smoke: clean scrub quiet, drifted scrub alarms --------
  std::uint64_t clean_alarms = 0;
  std::uint64_t drift_alarms = 0;
  double clean_score = 0.0;
  double drifted_score = 0.0;
  {
    serve::QueryServiceConfig service_config;
    service_config.workers = 1;
    serve::QueryService service{*index, service_config};
    (void)service.scrub_health();
    const obs::health::HealthReport clean = service.health_report();
    clean_alarms = clean.drift_alarms;
    for (const obs::health::BankHealth& bank : clean.banks) {
      clean_score = std::max(clean_score, bank.drift_score);
    }

    (void)service.inject_drift(kDriftSigma, 99);
    (void)service.scrub_health();
    const obs::health::HealthReport drifted = service.health_report();
    drift_alarms = drifted.drift_alarms;
    for (const obs::health::BankHealth& bank : drifted.banks) {
      drifted_score = std::max(drifted_score, bank.drift_score);
    }
    if (clean_alarms != 0) {
      std::fprintf(stderr, "FAIL: clean scrub raised %llu drift alarms\n",
                   static_cast<unsigned long long>(clean_alarms));
      return 1;
    }
    if (drift_alarms == 0) {
      std::fprintf(stderr,
                   "FAIL: scrub after inject_drift(sigma=%.2f) raised no drift alarm "
                   "(max drift_score %.4f)\n",
                   kDriftSigma, drifted_score);
      return 1;
    }
  }

  std::printf("spec: %s | %zu rows, %zu queries, k=%zu\n", kSpec.c_str(), kRows,
              kQueries, kTopK);
  std::printf("query (canary off):    %10.1f ns/query\n", query_ns);
  std::printf("should_sample (off):   %10.2f ns (%.4f%% of query)\n", sample_ns, off_pct);
  std::printf("drift detection:       clean max score %.4f (%llu alarms) -> drifted max "
              "score %.4f (%llu alarms)\n",
              clean_score, static_cast<unsigned long long>(clean_alarms), drifted_score,
              static_cast<unsigned long long>(drift_alarms));

  bench::BenchReport report{"health_overhead", argc, argv};
  report.note("spec", kSpec);
  report.note("rows", std::to_string(kRows));
  report.metric("query_canary_off", query_ns, "ns/query");
  report.metric("should_sample_off", sample_ns, "ns");
  report.metric("disabled_path_overhead", off_pct, "%");
  report.metric("clean_drift_score", clean_score, "fraction");
  report.metric("drifted_drift_score", drifted_score, "fraction");
  report.write();

  if (off_pct > 2.0) {
    std::fprintf(stderr,
                 "FAIL: canary-off overhead %.3f%% exceeds the 2%% gate "
                 "(%.2f ns vs %.1f ns/query)\n",
                 off_pct, sample_ns, query_ns);
    return 1;
  }
  std::printf("OK: canary-off == direct on %zu queries; canary-off overhead %.4f%% <= "
              "2%% gate; drift alarm fired only after injection\n",
              kQueries, off_pct);
  return 0;
}
