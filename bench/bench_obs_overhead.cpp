// Observability overhead gate: tracing OFF must be (near) free.
//
// Three checks, all hard failures for CI:
//   1. Bit-identity: query results with a stage trace installed are
//      identical (indices, distances, labels, telemetry) to results with
//      tracing off. Tracing observes the pipeline; it must never steer it.
//   2. Disabled-path cost gate: the tracing-off cost per query is
//      spans_per_query * cost(no-op TraceSpan) - a thread-local read plus
//      a branch, no clock. The gate asserts that this computed cost is
//      <= 2% of the measured per-query time. Computing the bound (instead
//      of diffing two noisy end-to-end timings) keeps the gate meaningful
//      on loaded CI runners.
//   3. Sampled / always-on costs are measured and reported (informational:
//      end-to-end timing diffs are too noisy to gate, but the numbers
//      document what trace_sample=N buys).
#include "bench_common.hpp"

#include "obs/trace.hpp"
#include "search/factory.hpp"
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
  constexpr std::size_t kSpanLoops = 1 << 20;
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

  // --- 1. Bit-identity: traced vs untraced answers ------------------------
  std::vector<search::QueryResult> reference;
  reference.reserve(kQueries);
  for (const auto& q : queries) reference.push_back(index->query_one(q, kTopK));

  std::size_t spans_per_query = 0;
  for (std::size_t i = 0; i < kQueries; ++i) {
    obs::Trace trace{"bench.query"};
    const search::QueryResult traced = [&] {
      obs::ScopedTraceContext context{&trace};
      return index->query_one(queries[i], kTopK);
    }();
    const obs::TraceRecord record = trace.finish();
    spans_per_query = std::max(spans_per_query, record.spans.size());

    const search::QueryResult& expect = reference[i];
    bool same = traced.label == expect.label &&
                traced.neighbors.size() == expect.neighbors.size() &&
                traced.telemetry.energy_j == expect.telemetry.energy_j &&
                traced.telemetry.candidates == expect.telemetry.candidates;
    for (std::size_t n = 0; same && n < traced.neighbors.size(); ++n) {
      same = traced.neighbors[n].index == expect.neighbors[n].index &&
             traced.neighbors[n].distance == expect.neighbors[n].distance;
    }
    if (!same) {
      std::fprintf(stderr, "FAIL: traced query %zu diverges from untraced\n", i);
      return 1;
    }
  }

  // --- 2. Computed disabled-path gate -------------------------------------
  // Per-query baseline (tracing off - no trace installed anywhere).
  const double query_ns = min_of_reps(kReps, [&] {
    const auto start = Clock::now();
    for (const auto& q : queries) (void)index->query_one(q, kTopK);
    const std::chrono::duration<double, std::nano> ns = Clock::now() - start;
    return ns.count() / static_cast<double>(kQueries);
  });

  // Cost of one no-op span: current_trace() is null, so the constructor is
  // one thread-local read and a branch; no clock is read.
  const double noop_span_ns = min_of_reps(kReps, [&] {
    std::size_t live = 0;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < kSpanLoops; ++i) {
      obs::TraceSpan span{"noop"};
      live += span.active() ? 1 : 0;
    }
    const std::chrono::duration<double, std::nano> ns = Clock::now() - start;
    if (live != 0) std::fprintf(stderr, "unexpected active no-op span\n");
    return ns.count() / static_cast<double>(kSpanLoops);
  });

  const double off_cost_ns = static_cast<double>(spans_per_query) * noop_span_ns;
  const double off_pct = query_ns > 0.0 ? 100.0 * off_cost_ns / query_ns : 0.0;

  // --- 3. Sampled / always-on costs (informational) -----------------------
  const auto traced_batch_ns = [&](std::size_t every) {
    obs::TraceSampler sampler{every};
    return min_of_reps(kReps, [&] {
      const auto start = Clock::now();
      for (const auto& q : queries) {
        if (sampler.should_sample()) {
          obs::Trace trace{"bench.query"};
          obs::ScopedTraceContext context{&trace};
          (void)index->query_one(q, kTopK);
          (void)trace.finish();
        } else {
          (void)index->query_one(q, kTopK);
        }
      }
      const std::chrono::duration<double, std::nano> ns = Clock::now() - start;
      return ns.count() / static_cast<double>(kQueries);
    });
  };
  const double sampled_ns = traced_batch_ns(16);
  const double always_ns = traced_batch_ns(1);

  std::printf("spec: %s | %zu rows, %zu queries, k=%zu\n", kSpec.c_str(), kRows,
              kQueries, kTopK);
  std::printf("query (tracing off):   %10.1f ns/query\n", query_ns);
  std::printf("no-op span:            %10.2f ns (x%zu spans = %.1f ns, %.4f%% of query)\n",
              noop_span_ns, spans_per_query, off_cost_ns, off_pct);
  std::printf("query (sampled 1/16):  %10.1f ns/query (%+.1f%%)\n", sampled_ns,
              query_ns > 0.0 ? 100.0 * (sampled_ns - query_ns) / query_ns : 0.0);
  std::printf("query (always-on):     %10.1f ns/query (%+.1f%%)\n", always_ns,
              query_ns > 0.0 ? 100.0 * (always_ns - query_ns) / query_ns : 0.0);

  bench::BenchReport report{"obs_overhead", argc, argv};
  report.note("spec", kSpec);
  report.note("rows", std::to_string(kRows));
  report.note("queries", std::to_string(kQueries));
  report.metric("query_untraced", query_ns, "ns/query");
  report.metric("noop_span", noop_span_ns, "ns");
  report.metric("disabled_path_overhead", off_pct, "%");
  report.metric("query_sampled_1_16", sampled_ns, "ns/query");
  report.metric("query_always_on", always_ns, "ns/query");
  report.write();

  if (off_pct > 2.0) {
    std::fprintf(stderr,
                 "FAIL: disabled-path trace overhead %.3f%% exceeds the 2%% gate "
                 "(%zu spans x %.2f ns vs %.1f ns/query)\n",
                 off_pct, spans_per_query, noop_span_ns, query_ns);
    return 1;
  }
  std::printf("OK: traced == untraced on %zu queries; disabled-path overhead %.4f%% "
              "<= 2%% gate\n",
              kQueries, off_pct);
  return 0;
}
