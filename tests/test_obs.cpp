// The observability layer: metrics registry semantics (resolve-once
// handles, labels, kind mismatches, reset), golden-file exporter tests
// (Prometheus text + JSON-lines), the shared percentile estimator, trace
// record structure / sampling / sink, and the two load-bearing gates:
// tracing is strictly observational (traced queries bit-identical across
// the whole factory registry) and a refine trace's spans agree with the
// query's own telemetry.
#include "obs/exporters.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "search/factory.hpp"
#include "serve/service.hpp"
#include "store/manager.hpp"
#include "util/rng.hpp"
#include "util/statistics.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

namespace mcam {
namespace {

/// Labeled Gaussian blobs, one blob per class (the test_index_api idiom).
struct Blobs {
  std::vector<std::vector<float>> train;
  std::vector<int> train_labels;
  std::vector<std::vector<float>> queries;
};

Blobs make_blobs(std::size_t per_class, std::size_t classes, std::size_t dim,
                 double spread, std::uint64_t seed) {
  Blobs blobs;
  Rng rng{seed};
  const auto sample = [&](std::size_t cls) {
    std::vector<float> v(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      v[i] = static_cast<float>(rng.normal(static_cast<double>(cls) * 2.0 +
                                               static_cast<double>(i % 3) * 0.4,
                                           spread));
    }
    return v;
  };
  for (std::size_t cls = 0; cls < classes; ++cls) {
    for (std::size_t i = 0; i < per_class; ++i) {
      blobs.train.push_back(sample(cls));
      blobs.train_labels.push_back(static_cast<int>(cls));
      blobs.queries.push_back(sample(cls));
    }
  }
  return blobs;
}

const obs::SpanRecord* find_span(const obs::TraceRecord& record, const char* name) {
  for (const obs::SpanRecord& span : record.spans) {
    if (std::strcmp(span.name, name) == 0) return &span;
  }
  return nullptr;
}

double note_value(const obs::SpanRecord& span, const char* key) {
  for (const auto& [note_key, value] : span.notes) {
    if (std::strcmp(note_key, key) == 0) return value;
  }
  ADD_FAILURE() << "span '" << span.name << "' has no note '" << key << "'";
  return -1.0;
}

// --- Shared percentile estimator ------------------------------------------

TEST(Statistics, NearestRankPercentileSortsAndClamps) {
  EXPECT_DOUBLE_EQ(mcam::nearest_rank_percentile({}, 50.0), 0.0);
  // Unsorted input is sorted internally; p is clamped.
  const std::vector<double> shuffled{9.0, 1.0, 4.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(mcam::nearest_rank_percentile(shuffled, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(mcam::nearest_rank_percentile(shuffled, -5.0), 1.0);
  EXPECT_DOUBLE_EQ(mcam::nearest_rank_percentile(shuffled, 250.0), 9.0);
}

TEST(Statistics, PercentileWindowSlidesAndEstimates) {
  PercentileWindow window{4};
  EXPECT_TRUE(window.empty());
  EXPECT_DOUBLE_EQ(window.percentile(50.0), 0.0);
  window.add(10.0);
  window.add(20.0);
  EXPECT_EQ(window.size(), 2u);
  EXPECT_EQ(window.total(), 2u);
  EXPECT_DOUBLE_EQ(window.mean(), 15.0);
  EXPECT_DOUBLE_EQ(window.percentile(50.0), 10.0);
  window.add(30.0);
  window.add(40.0);
  window.add(50.0);  // Evicts 10.0: the window now holds {20,30,40,50}.
  EXPECT_EQ(window.size(), 4u);
  EXPECT_EQ(window.total(), 5u);
  EXPECT_DOUBLE_EQ(window.percentile(0.0), 20.0);
  EXPECT_DOUBLE_EQ(window.percentile(100.0), 50.0);
  EXPECT_DOUBLE_EQ(window.mean(), 35.0);
  window.clear();
  EXPECT_TRUE(window.empty());
  EXPECT_EQ(window.total(), 0u);
}

// --- Exporters (golden strings) --------------------------------------------

using obs::MetricsSnapshot;

MetricsSnapshot golden_snapshot() {
  MetricsSnapshot snapshot;
  snapshot.counters.push_back(
      {"mcam_serve_requests_total", {{"outcome", "ok"}}, 41});
  snapshot.counters.push_back(
      {"mcam_serve_requests_total", {{"outcome", "rejected"}}, 2});
  snapshot.counters.push_back(
      {"tricky_total", {{"path", "a\\b"}, {"quote", "say \"hi\"\n"}}, 7});
  snapshot.gauges.push_back({"mcam_store_rows", {{"collection", "c1"}}, 12.0});
  obs::HistogramSample histogram;
  histogram.name = "mcam_serve_latency_ms";
  histogram.bounds = {0.5, 2.0};
  histogram.counts = {2, 0, 1};  // Non-cumulative; the +Inf bucket holds 1.
  histogram.sum = 10.75;
  histogram.count = 3;
  snapshot.histograms.push_back(histogram);
  return snapshot;
}

TEST(Exporters, PrometheusGolden) {
  const std::string expected =
      "# TYPE mcam_serve_requests_total counter\n"
      "mcam_serve_requests_total{outcome=\"ok\"} 41\n"
      "mcam_serve_requests_total{outcome=\"rejected\"} 2\n"
      "# TYPE tricky_total counter\n"
      "tricky_total{path=\"a\\\\b\",quote=\"say \\\"hi\\\"\\n\"} 7\n"
      "# TYPE mcam_store_rows gauge\n"
      "mcam_store_rows{collection=\"c1\"} 12\n"
      "# TYPE mcam_serve_latency_ms histogram\n"
      "mcam_serve_latency_ms_bucket{le=\"0.5\"} 2\n"
      "mcam_serve_latency_ms_bucket{le=\"2\"} 2\n"
      "mcam_serve_latency_ms_bucket{le=\"+Inf\"} 3\n"
      "mcam_serve_latency_ms_sum 10.75\n"
      "mcam_serve_latency_ms_count 3\n";
  EXPECT_EQ(obs::to_prometheus(golden_snapshot()), expected);
}

TEST(Exporters, JsonLinesGolden) {
  const std::string expected =
      "{\"type\":\"counter\",\"name\":\"mcam_serve_requests_total\","
      "\"labels\":{\"outcome\":\"ok\"},\"value\":41}\n"
      "{\"type\":\"counter\",\"name\":\"mcam_serve_requests_total\","
      "\"labels\":{\"outcome\":\"rejected\"},\"value\":2}\n"
      "{\"type\":\"counter\",\"name\":\"tricky_total\","
      "\"labels\":{\"path\":\"a\\\\b\",\"quote\":\"say \\\"hi\\\"\\n\"},\"value\":7}\n"
      "{\"type\":\"gauge\",\"name\":\"mcam_store_rows\","
      "\"labels\":{\"collection\":\"c1\"},\"value\":12}\n"
      "{\"type\":\"histogram\",\"name\":\"mcam_serve_latency_ms\",\"labels\":{},"
      "\"buckets\":[{\"le\":0.5,\"count\":2},{\"le\":2,\"count\":0},"
      "{\"le\":\"+Inf\",\"count\":1}],\"sum\":10.75,\"count\":3}\n";
  EXPECT_EQ(obs::to_jsonl(golden_snapshot()), expected);
}

TEST(Exporters, EmptySnapshotRendersEmpty) {
  EXPECT_EQ(obs::to_prometheus(MetricsSnapshot{}), "");
  EXPECT_EQ(obs::to_jsonl(MetricsSnapshot{}), "");
}

TEST(Exporters, HealthReportJsonGolden) {
  obs::health::HealthReport report;
  report.canary.sampled = 10;
  report.canary.executed = 7;
  report.canary.stale = 2;
  report.canary.dropped = 1;
  report.canary.window = 7;
  report.canary.recall_estimate = 0.875;
  report.canary.mean_rank_displacement = 0.5;
  report.canary.coarse_misses = 3;
  report.canary.alarms = 1;
  report.canary.alarm_active = true;
  obs::health::BankHealth bank;
  bank.bank = "bank0/\"q\"";  // Exercises JSON escaping in the bank path.
  bank.rows = 4;
  bank.cells = 32;
  bank.mismatched_cells = 2;
  bank.faulty_cells = 1;
  bank.drift_score = 0.0625;
  bank.mean_abs_shift_v = 0.125;
  bank.max_abs_shift_v = 0.25;
  report.banks.push_back(bank);
  report.scrubs = 5;
  report.drift_alarms = 2;
  report.drift_alarm_active = false;

  const std::string expected =
      "{\"canary\":{\"sampled\":10,\"executed\":7,\"stale\":2,\"dropped\":1,"
      "\"window\":7,\"recall_estimate\":0.875,\"mean_rank_displacement\":0.5,"
      "\"coarse_misses\":3,\"alarms\":1,\"alarm_active\":true},"
      "\"banks\":[{\"bank\":\"bank0/\\\"q\\\"\",\"rows\":4,\"cells\":32,"
      "\"mismatched_cells\":2,\"faulty_cells\":1,\"drift_score\":0.0625,"
      "\"mean_abs_shift_v\":0.125,\"max_abs_shift_v\":0.25}],"
      "\"scrubs\":5,\"drift_alarms\":2,\"drift_alarm_active\":false}";
  EXPECT_EQ(obs::to_json(report), expected);

  const std::string empty =
      "{\"canary\":{\"sampled\":0,\"executed\":0,\"stale\":0,\"dropped\":0,"
      "\"window\":0,\"recall_estimate\":1,\"mean_rank_displacement\":0,"
      "\"coarse_misses\":0,\"alarms\":0,\"alarm_active\":false},"
      "\"banks\":[],\"scrubs\":0,\"drift_alarms\":0,\"drift_alarm_active\":false}";
  EXPECT_EQ(obs::to_json(obs::health::HealthReport{}), empty);
}

// --- Engine spec plumbing --------------------------------------------------

TEST(EngineSpec, TraceSampleKeyParsesAndRejectsGarbage) {
  // The serving layers sample from their own configs; a spec's
  // trace_sample=N is checked and ignored, so old spec strings still load.
  const search::EngineSpec spec = search::parse_engine_spec("mcam:trace_sample=4");
  EXPECT_EQ(spec.config, search::parse_engine_spec("mcam").config);
  EXPECT_THROW((void)search::parse_engine_spec("mcam:trace_sample=x"),
               std::invalid_argument);
  try {
    (void)search::parse_engine_spec("mcam:definitely_unknown=1");
    FAIL() << "unknown key accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("trace_sample"), std::string::npos)
        << "known-key list should name trace_sample: " << e.what();
  }
}

TEST(TraceConfig, EffectiveSampleFallsBackToEnvironment) {
  EXPECT_EQ(obs::effective_trace_sample(5), 5u);
  // The env default is read once per process; whatever it is, 0 defers to it.
  EXPECT_EQ(obs::effective_trace_sample(0), obs::env_trace_sample());
}

// --- Tracing is strictly observational -------------------------------------

TEST(TracingObservational, TracedQueriesBitIdenticalAcrossFactoryRegistry) {
  const Blobs blobs = make_blobs(6, 3, 8, 0.5, 91);
  for (const std::string& name : search::EngineFactory::instance().registered_names()) {
    search::EngineConfig config;
    config.num_features = 8;
    config.bank_rows = name.rfind("sharded-", 0) == 0 ? 8 : 0;
    if (name == "refine") {
      config.fine_spec = "euclidean";
      config.probes = 2;
    }
    auto index = search::make_index(name, config);
    index->add(blobs.train, blobs.train_labels);
    for (const auto& q : blobs.queries) {
      const search::QueryResult expect = index->query_one(q, 3);
      obs::Trace trace{"test.query"};
      search::QueryResult traced;
      {
        obs::ScopedTraceContext context{&trace};
        traced = index->query_one(q, 3);
      }
      (void)trace.finish();
      ASSERT_EQ(traced.label, expect.label) << name;
      ASSERT_EQ(traced.neighbors.size(), expect.neighbors.size()) << name;
      for (std::size_t n = 0; n < traced.neighbors.size(); ++n) {
        EXPECT_EQ(traced.neighbors[n].index, expect.neighbors[n].index) << name;
        EXPECT_EQ(traced.neighbors[n].distance, expect.neighbors[n].distance) << name;
      }
      EXPECT_EQ(traced.telemetry.energy_j, expect.telemetry.energy_j) << name;
      EXPECT_EQ(traced.telemetry.candidates, expect.telemetry.candidates) << name;
    }
  }
}

// --- Registry semantics ----------------------------------------------------

TEST(Registry, ResolveOnceSharesTheCell) {
  obs::Registry registry;
  const obs::Counter a = registry.counter("requests_total");
  const obs::Counter b = registry.counter("requests_total");
  a.inc();
  b.inc(4);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(b.value(), 5u);
  // An inert default-constructed handle is a no-op, not a crash.
  const obs::Counter inert;
  inert.inc();
  EXPECT_EQ(inert.value(), 0u);
}

TEST(Registry, LabelsAreSortedAndDistinguishCells) {
  obs::Registry registry;
  const obs::Counter ab = registry.counter("hits", {{"b", "2"}, {"a", "1"}});
  const obs::Counter ab_sorted = registry.counter("hits", {{"a", "1"}, {"b", "2"}});
  const obs::Counter other = registry.counter("hits", {{"a", "1"}});
  ab.inc(3);
  EXPECT_EQ(ab_sorted.value(), 3u) << "label order must not split the cell";
  EXPECT_EQ(other.value(), 0u);
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  // Sorted by (name, labels): the single-label cell sorts first.
  EXPECT_EQ(snapshot.counters[0].labels.size(), 1u);
  ASSERT_EQ(snapshot.counters[1].labels.size(), 2u);
  EXPECT_EQ(snapshot.counters[1].labels[0].first, "a");
  EXPECT_EQ(snapshot.counters[1].labels[1].first, "b");
}

TEST(Registry, KindAndBoundsMismatchesThrow) {
  obs::Registry registry;
  (void)registry.counter("metric_a");
  EXPECT_THROW((void)registry.gauge("metric_a"), std::invalid_argument);
  EXPECT_THROW((void)registry.histogram("metric_a", {1.0}), std::invalid_argument);
  (void)registry.histogram("metric_h", {1.0, 2.0});
  EXPECT_THROW((void)registry.histogram("metric_h", {1.0, 3.0}), std::invalid_argument);
  EXPECT_THROW((void)registry.counter(""), std::invalid_argument);
  EXPECT_THROW((void)registry.histogram("metric_empty", {}), std::invalid_argument);
}

TEST(Registry, HistogramBucketsAreInclusiveNonCumulative) {
  obs::Registry registry;
  const obs::Histogram histogram = registry.histogram("h", {1.0, 10.0});
  histogram.observe(0.5);   // le=1 bucket.
  histogram.observe(1.0);   // Inclusive upper bound: still the le=1 bucket.
  histogram.observe(5.0);   // le=10 bucket.
  histogram.observe(99.0);  // +Inf bucket, never clamped into le=10.
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  const obs::HistogramSample& sample = snapshot.histograms.front();
  ASSERT_EQ(sample.counts.size(), 3u);
  EXPECT_EQ(sample.counts[0], 2u);
  EXPECT_EQ(sample.counts[1], 1u);
  EXPECT_EQ(sample.counts[2], 1u);
  EXPECT_EQ(sample.count, 4u);
  EXPECT_DOUBLE_EQ(sample.sum, 105.5);
}

TEST(Registry, ResetZeroesButHandlesStayLive) {
  obs::Registry registry;
  const obs::Counter counter = registry.counter("c");
  const obs::Gauge gauge = registry.gauge("g");
  const obs::Histogram histogram = registry.histogram("h", {1.0});
  counter.inc(3);
  gauge.set(7.0);
  histogram.observe(0.5);
  registry.reset();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  EXPECT_EQ(histogram.count(), 0u);
  counter.inc();
  EXPECT_EQ(counter.value(), 1u);
  EXPECT_EQ(registry.snapshot().counters.size(), 1u) << "instruments survive reset";
}

TEST(Registry, RemoveLabeledZeroesHidesAndRevives) {
  obs::Registry registry;
  const obs::Counter ok = registry.counter("requests", {{"collection", "c1"}});
  const obs::Gauge rows = registry.gauge("rows", {{"collection", "c1"}});
  const obs::Counter other = registry.counter("requests", {{"collection", "c2"}});
  ok.inc(5);
  rows.set(12.0);
  other.inc(2);

  EXPECT_EQ(registry.remove_labeled("collection", "c1"), 2u);
  EXPECT_EQ(registry.remove_labeled("collection", "missing"), 0u);
  obs::MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.counters.size(), 1u) << "hidden series leave the snapshot";
  EXPECT_EQ(snapshot.counters[0].labels, (obs::Labels{{"collection", "c2"}}));
  EXPECT_TRUE(snapshot.gauges.empty());

  // Old handles stay safe (the cell is never freed) but the value is gone.
  ok.inc();
  EXPECT_EQ(ok.value(), 1u);

  // Re-resolving the same (name, labels) revives the cell from zero: a
  // dropped-and-recreated collection never double-reports.
  const obs::Counter recreated = registry.counter("requests", {{"collection", "c1"}});
  recreated.inc(3);
  snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  for (const obs::CounterSample& sample : snapshot.counters) {
    if (sample.labels == obs::Labels{{"collection", "c1"}}) {
      EXPECT_EQ(sample.value, 4u) << "1 (post-hide inc on the old handle) + 3";
    }
  }
}

// --- Trace mechanics -------------------------------------------------------

TEST(Trace, SpansRecordNamesTagsAndNotes) {
  obs::Trace trace{"unit.test"};
  {
    obs::ScopedTraceContext context{&trace};
    ASSERT_EQ(obs::current_trace(), &trace);
    obs::TraceSpan span{"stage-a"};
    EXPECT_TRUE(span.active());
    span.note("items", 3.0);
    span.tag("avx2");
  }
  EXPECT_EQ(obs::current_trace(), nullptr);
  {
    obs::TraceSpan orphan{"never-recorded"};  // No current trace: a no-op.
    EXPECT_FALSE(orphan.active());
  }
  const obs::TraceRecord record = trace.finish();
  EXPECT_EQ(record.root, "unit.test");
  ASSERT_EQ(record.spans.size(), 1u);
  const obs::SpanRecord* span = find_span(record, "stage-a");
  ASSERT_NE(span, nullptr);
  EXPECT_STREQ(span->tag, "avx2");
  EXPECT_DOUBLE_EQ(note_value(*span, "items"), 3.0);
  EXPECT_GE(record.total_ms, span->elapsed_ms);

  const std::string json = obs::to_json(record);
  EXPECT_NE(json.find("\"trace\":\"unit.test\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"stage-a\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"items\":3"), std::string::npos) << json;
}

TEST(Trace, ScopedContextNestsAndRestores) {
  obs::Trace outer{"outer"};
  obs::Trace inner{"inner"};
  EXPECT_EQ(obs::current_trace(), nullptr);
  {
    obs::ScopedTraceContext outer_scope{&outer};
    EXPECT_EQ(obs::current_trace(), &outer);
    {
      obs::ScopedTraceContext inner_scope{&inner};
      EXPECT_EQ(obs::current_trace(), &inner);
    }
    EXPECT_EQ(obs::current_trace(), &outer);
    {
      obs::ScopedTraceContext null_scope{nullptr};  // Null install is a no-op.
      EXPECT_EQ(obs::current_trace(), &outer);
    }
    EXPECT_EQ(obs::current_trace(), &outer);
  }
  EXPECT_EQ(obs::current_trace(), nullptr);
}

TEST(Trace, SamplerIsOneInNAndZeroDisables) {
  obs::TraceSampler off{0};
  for (int i = 0; i < 8; ++i) EXPECT_FALSE(off.should_sample());
  obs::TraceSampler always{1};
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(always.should_sample());
  obs::TraceSampler third{3};
  int sampled = 0;
  for (int i = 0; i < 9; ++i) sampled += third.should_sample() ? 1 : 0;
  EXPECT_EQ(sampled, 3);
  third.set_every(0);
  EXPECT_FALSE(third.should_sample());
}

TEST(Trace, SinkIsABoundedRingThatStampsIds) {
  obs::TraceSink sink{2};
  for (int i = 0; i < 3; ++i) {
    obs::Trace trace{"t" + std::to_string(i)};
    sink.record(trace.finish());
  }
  EXPECT_EQ(sink.recorded_total(), 3u);
  const std::vector<obs::TraceRecord> recent = sink.recent();
  ASSERT_EQ(recent.size(), 2u) << "oldest trace evicted";
  EXPECT_EQ(recent[0].root, "t1");
  EXPECT_EQ(recent[0].id, 2u);
  EXPECT_EQ(recent[1].root, "t2");
  EXPECT_EQ(recent[1].id, 3u);
  EXPECT_NE(sink.to_jsonl().find("\"trace\":\"t2\""), std::string::npos);
  sink.clear();
  EXPECT_TRUE(sink.recent().empty());
  EXPECT_EQ(sink.recorded_total(), 3u) << "clear drops traces, not the total";
}

// --- The acceptance gate: refine spans agree with QueryTelemetry -----------

TEST(TracingRefine, SpanSchemaAgreesWithQueryTelemetry) {
  const Blobs blobs = make_blobs(12, 3, 8, 0.5, 137);
  search::EngineConfig config;
  config.num_features = 8;
  config.coarse_bits = 32;
  config.probes = 2;
  config.candidate_factor = 4;
  config.fine_spec = "euclidean";
  auto index = search::make_index("refine", config);
  index->add(blobs.train, blobs.train_labels);

  obs::Trace trace{"serve.query"};
  search::QueryResult result;
  {
    obs::ScopedTraceContext context{&trace};
    result = index->query_one(blobs.queries.front(), 3);
  }
  const obs::TraceRecord record = trace.finish();

  for (const char* name : {"encode", "coarse-sweep", "multi-probe", "nominate",
                           "fine-rerank", "merge"}) {
    EXPECT_NE(find_span(record, name), nullptr) << "missing span " << name;
  }
  const obs::SpanRecord* merge = find_span(record, "merge");
  ASSERT_NE(merge, nullptr);
  const search::QueryTelemetry& telemetry = result.telemetry;
  EXPECT_DOUBLE_EQ(note_value(*merge, "coarse_candidates"),
                   static_cast<double>(telemetry.coarse_candidates));
  EXPECT_DOUBLE_EQ(note_value(*merge, "fine_candidates"),
                   static_cast<double>(telemetry.fine_candidates));
  EXPECT_DOUBLE_EQ(note_value(*merge, "candidates"),
                   static_cast<double>(telemetry.candidates));
  EXPECT_DOUBLE_EQ(note_value(*merge, "energy_j"), telemetry.energy_j);
  EXPECT_DOUBLE_EQ(note_value(*merge, "probes"),
                   static_cast<double>(telemetry.probes_used));
  const obs::SpanRecord* probe = find_span(record, "multi-probe");
  ASSERT_NE(probe, nullptr);
  EXPECT_DOUBLE_EQ(note_value(*probe, "probes"),
                   static_cast<double>(telemetry.probes_used));
  const obs::SpanRecord* fine = find_span(record, "fine-rerank");
  ASSERT_NE(fine, nullptr);
  EXPECT_STREQ(fine->tag, telemetry.kernel);
  EXPECT_DOUBLE_EQ(note_value(*fine, "candidates"),
                   static_cast<double>(telemetry.fine_candidates));
}

// --- Serving layers record into the registry and the sink ------------------

TEST(ServiceObservability, AggregatesKernelProbesEnergyAndTraces) {
  const Blobs blobs = make_blobs(12, 3, 8, 0.5, 31);
  search::EngineConfig config;
  config.num_features = 8;
  config.coarse_bits = 32;
  config.probes = 2;
  config.fine_spec = "euclidean";
  auto index = search::make_index("refine", config);
  index->add(blobs.train, blobs.train_labels);

  serve::QueryServiceConfig service_config;
  service_config.trace_sample = 1;  // Trace every query.
  service_config.cache_capacity = 0;
  serve::QueryService service{*index, service_config};
  const std::uint64_t sink_before = obs::TraceSink::global().recorded_total();
  for (const auto& q : blobs.queries) {
    const serve::QueryResponse response = service.query_one(q, 3);
    ASSERT_EQ(response.status, serve::RequestStatus::kOk);
  }
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, blobs.queries.size());
  EXPECT_GT(stats.probes_total, 0u);
  EXPECT_GT(stats.energy_j_total, 0.0);
  EXPECT_EQ(stats.traces_recorded, blobs.queries.size());
  std::size_t kernel_total = 0;
  for (const auto& [kernel, count] : stats.kernel_queries) {
    EXPECT_FALSE(kernel.empty());
    kernel_total += count;
  }
  EXPECT_EQ(kernel_total, blobs.queries.size());
  EXPECT_EQ(obs::TraceSink::global().recorded_total() - sink_before,
            blobs.queries.size());

  // Every sampled trace carries the serving spans around the engine's.
  const std::vector<obs::TraceRecord> recent = obs::TraceSink::global().recent();
  ASSERT_FALSE(recent.empty());
  const obs::TraceRecord& last = recent.back();
  EXPECT_EQ(last.root, "serve.query");
  for (const char* name : {"queue-wait", "execute", "fine-rerank"}) {
    EXPECT_NE(find_span(last, name), nullptr) << "missing span " << name;
  }

  // The global registry saw the same queries.
  bool found_kernel_counter = false;
  for (const obs::CounterSample& sample : obs::snapshot().counters) {
    if (sample.name == "mcam_queries_by_kernel_total") found_kernel_counter = true;
  }
  EXPECT_TRUE(found_kernel_counter);
}

TEST(StoreObservability, PerCollectionInstrumentsAndRowsGauge) {
  const Blobs blobs = make_blobs(8, 2, 6, 0.5, 53);
  store::ManagerConfig config;
  config.trace_sample = 1;
  store::CollectionManager manager{config};
  manager.create_collection("obs_test_c1", "euclidean");
  (void)manager.add("obs_test_c1", blobs.train, blobs.train_labels);
  for (const auto& q : blobs.queries) {
    const store::StoreResponse response = manager.query_one("obs_test_c1", q, 2);
    ASSERT_EQ(response.status, serve::RequestStatus::kOk);
  }
  const serve::ServiceStats stats = manager.stats("obs_test_c1");
  EXPECT_EQ(stats.completed, blobs.queries.size());
  EXPECT_EQ(stats.traces_recorded, blobs.queries.size());
  std::size_t kernel_total = 0;
  for (const auto& [kernel, count] : stats.kernel_queries) kernel_total += count;
  EXPECT_EQ(kernel_total, blobs.queries.size());

  double rows_gauge = -1.0;
  std::uint64_t ok_requests = 0;
  const obs::MetricsSnapshot snapshot = obs::snapshot();
  for (const obs::GaugeSample& sample : snapshot.gauges) {
    if (sample.name == "mcam_store_rows" &&
        sample.labels == obs::Labels{{"collection", "obs_test_c1"}}) {
      rows_gauge = sample.value;
    }
  }
  for (const obs::CounterSample& sample : snapshot.counters) {
    if (sample.name == "mcam_store_requests_total" &&
        sample.labels ==
            obs::Labels{{"collection", "obs_test_c1"}, {"outcome", "ok"}}) {
      ok_requests = sample.value;
    }
  }
  EXPECT_DOUBLE_EQ(rows_gauge, static_cast<double>(blobs.train.size()));
  EXPECT_GE(ok_requests, blobs.queries.size());

  const std::vector<obs::TraceRecord> recent = obs::TraceSink::global().recent();
  ASSERT_FALSE(recent.empty());
  const obs::TraceRecord& last = recent.back();
  EXPECT_EQ(last.root, "store.obs_test_c1");
  EXPECT_NE(find_span(last, "route"), nullptr);
  EXPECT_NE(find_span(last, "queue-wait"), nullptr);

  EXPECT_TRUE(manager.drop_collection("obs_test_c1"));
}

// Store-served queries book the same per-query series as the service -
// coarse margins, probes, energy, kernels - labeled {collection=name}.
TEST(StoreObservability, RefineCollectionBooksMarginsProbesEnergyAndKernels) {
  const Blobs blobs = make_blobs(24, 3, 8, 0.5, 61);
  search::EngineConfig base;
  base.num_features = 8;
  store::CollectionManager manager{store::ManagerConfig{}};
  // candidate_factor 2 at k = 3 nominates 6 of 72 rows: every query cuts.
  manager.create_collection("obs_refine_c1",
                            "refine:coarse_bits=32,candidate_factor=2,fine=euclidean", base);
  (void)manager.add("obs_refine_c1", blobs.train, blobs.train_labels);
  for (std::size_t q = 0; q < 12; ++q) {
    ASSERT_EQ(manager.query_one("obs_refine_c1", blobs.queries[q], 3).status,
              serve::RequestStatus::kOk);
  }
  const serve::ServiceStats stats = manager.stats("obs_refine_c1");
  EXPECT_EQ(stats.completed, 12u);
  EXPECT_EQ(stats.coarse_margin_queries, 12u);
  EXPECT_GT(stats.coarse_margin_mean, 0.0);
  EXPECT_GE(stats.coarse_margin_p95, stats.coarse_margin_p50);

  const obs::Labels labels{{"collection", "obs_refine_c1"}};
  std::uint64_t energy_count = 0;
  std::uint64_t probes = 0;
  std::uint64_t kernel_total = 0;
  const obs::MetricsSnapshot snapshot = obs::snapshot();
  for (const obs::HistogramSample& sample : snapshot.histograms) {
    if (sample.name == "mcam_query_energy_j" && sample.labels == labels) {
      energy_count = sample.count;
    }
  }
  for (const obs::CounterSample& sample : snapshot.counters) {
    if (sample.name == "mcam_coarse_probes_total" && sample.labels == labels) {
      probes = sample.value;
    }
    if (sample.name == "mcam_queries_by_kernel_total" && sample.labels.size() == 2 &&
        sample.labels.front() == labels.front()) {
      kernel_total += sample.value;
    }
  }
  EXPECT_EQ(energy_count, stats.completed);
  EXPECT_EQ(probes, stats.probes_total);
  EXPECT_EQ(kernel_total, stats.completed);
  EXPECT_TRUE(manager.drop_collection("obs_refine_c1"));
}

// The satellite regression: dropping a collection must retire its whole
// {collection=}-labeled series family, and a recreate must restart from
// zero - a drop/recreate cycle never double-reports rows or requests.
TEST(StoreObservability, DroppedCollectionSeriesVanishAndRecreateRestartsAtZero) {
  const Blobs blobs = make_blobs(6, 2, 6, 0.5, 59);
  const obs::Labels want{{"collection", "obs_drop_c1"}};
  const auto rows_gauge = [&]() -> double {
    for (const obs::GaugeSample& sample : obs::snapshot().gauges) {
      if (sample.name == "mcam_store_rows" && sample.labels == want) return sample.value;
    }
    return -1.0;  // No visible series.
  };

  store::CollectionManager manager{store::ManagerConfig{}};
  manager.create_collection("obs_drop_c1", "euclidean");
  (void)manager.add("obs_drop_c1", blobs.train, blobs.train_labels);
  (void)manager.query_one("obs_drop_c1", blobs.queries.front(), 2);
  EXPECT_DOUBLE_EQ(rows_gauge(), static_cast<double>(blobs.train.size()));

  EXPECT_TRUE(manager.drop_collection("obs_drop_c1"));
  EXPECT_DOUBLE_EQ(rows_gauge(), -1.0) << "dropped series must leave the snapshot";
  for (const obs::CounterSample& sample : obs::snapshot().counters) {
    EXPECT_NE(sample.labels, want) << sample.name << " survived the drop";
  }
  for (const obs::HistogramSample& sample : obs::snapshot().histograms) {
    EXPECT_NE(sample.labels, want) << sample.name << " survived the drop";
  }

  // Recreate with fewer rows: the gauge reflects only the new life.
  manager.create_collection("obs_drop_c1", "euclidean");
  (void)manager.add("obs_drop_c1",
                    std::vector<std::vector<float>>{blobs.train.begin(),
                                                    blobs.train.begin() + 3},
                    std::vector<int>{blobs.train_labels.begin(),
                                     blobs.train_labels.begin() + 3});
  EXPECT_DOUBLE_EQ(rows_gauge(), 3.0) << "a recreate must not double-report";
  std::uint64_t ok_requests = 99;
  for (const obs::CounterSample& sample : obs::snapshot().counters) {
    if (sample.name == "mcam_store_requests_total" &&
        sample.labels == obs::Labels{{"collection", "obs_drop_c1"}, {"outcome", "ok"}}) {
      ok_requests = sample.value;
    }
  }
  EXPECT_TRUE(ok_requests == 99 || ok_requests == 0)
      << "request counters restart at zero (got " << ok_requests << ")";
  EXPECT_TRUE(manager.drop_collection("obs_drop_c1"));
}

}  // namespace
}  // namespace mcam
