// Renderers for a MetricsSnapshot: Prometheus text exposition format and
// JSON-lines, the two formats a scrape endpoint or a log shipper would
// serve. Pure functions over the snapshot data structs, so they are
// golden-file tested on hand-built snapshots.
#pragma once

#include "obs/health/health.hpp"
#include "obs/metrics.hpp"

#include <string>

namespace mcam::obs {

/// Prometheus text exposition format (version 0.0.4):
///
///   # TYPE mcam_serve_requests_total counter
///   mcam_serve_requests_total{outcome="ok"} 41
///   # TYPE mcam_serve_latency_ms histogram
///   mcam_serve_latency_ms_bucket{le="0.5"} 2     <- bucket counts are
///   mcam_serve_latency_ms_bucket{le="+Inf"} 3       CUMULATIVE
///   mcam_serve_latency_ms_sum 1.75
///   mcam_serve_latency_ms_count 3
///
/// Label values are escaped per the spec (backslash, double quote,
/// newline). Metrics are emitted in snapshot order (sorted by name, then
/// labels), one TYPE header per metric name. An empty snapshot renders as
/// the empty string.
[[nodiscard]] std::string to_prometheus(const MetricsSnapshot& snapshot);

/// JSON-lines: one self-contained JSON object per line, e.g.
///
///   {"type":"counter","name":"requests","labels":{"outcome":"ok"},"value":41}
///   {"type":"histogram","name":"lat","labels":{},"buckets":[{"le":0.5,
///    "count":2},{"le":"+Inf","count":1}],"sum":1.75,"count":3}
///
/// Histogram bucket counts are per-bucket (NOT cumulative); the +Inf
/// bucket's `le` is the JSON string "+Inf". Strings are JSON-escaped.
/// Every line ends with '\n'; an empty snapshot renders as the empty
/// string.
[[nodiscard]] std::string to_jsonl(const MetricsSnapshot& snapshot);

/// One JSON object for a health snapshot (obs/health): canary statistics,
/// per-bank scrub results, and alarm state, e.g.
///
///   {"canary":{"sampled":12,...,"recall_estimate":0.97,...},
///    "banks":[{"bank":"coarse","rows":64,...,"drift_score":0.01,...}],
///    "scrubs":3,"drift_alarms":0,"drift_alarm_active":false}
///
/// Like the snapshot renderers this is a pure function over the report
/// struct.
[[nodiscard]] std::string to_json(const health::HealthReport& report);

namespace detail {
/// Shortest round-trippable-ish decimal rendering used by both exporters
/// ("%.10g": integers print bare - "42" - and the bucket bounds / sums
/// the serving stack uses render without trailing noise).
[[nodiscard]] std::string format_number(double value);
/// Prometheus label-value escaping: \ -> \\, " -> \", newline -> \n.
[[nodiscard]] std::string escape_prometheus(const std::string& value);
/// JSON string escaping (quotes, backslash, control characters).
[[nodiscard]] std::string escape_json(const std::string& value);
}  // namespace detail

}  // namespace mcam::obs
