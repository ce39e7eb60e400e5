// Per-query stage tracing: one sampled query produces one TraceRecord
// whose spans explain where the query spent its time - coarse encode,
// TCAM sweep, multi-probe, band filter, fine rerank, merge, plus the
// serving layers' queue-wait / execute / admission / route - each span
// carrying wall time and the domain counters (candidates, energy,
// probes) the paper's energy story is argued in.
//
// Mechanics:
//
//  - The serving layer decides per query whether to trace (TraceSampler,
//    1-in-N with N from config / the MCAM_TRACE_SAMPLE env; 0 = off) and,
//    when sampled, allocates a Trace and installs it as the calling
//    thread's *current* trace (ScopedTraceContext, a thread-local).
//  - Engine code creates `TraceSpan` RAII scopes against
//    `obs::current_trace()`. When no trace is installed - the normal,
//    unsampled case - the span constructor reads one thread-local,
//    branches, and does nothing else: no clock read, no allocation. That
//    is the whole hot-path cost of tracing-off, and bench_obs_overhead
//    gates it.
//  - A sampled trace can change threads: the serving fronts allocate it
//    on the caller's thread and install it on the worker that runs the
//    query. Trace::add is mutex-protected, so spans recorded from any
//    thread are safe (the sanitizer CI jobs run the service tests with
//    MCAM_TRACE_SAMPLE=1 to keep it honest).
//  - Finished traces land in a bounded TraceSink ring (oldest evicted),
//    exportable as JSON-lines.
//
// Tracing is strictly observational: a traced query returns bit-identical
// results to an untraced one (asserted across the factory registry in
// tests and gated by bench_obs_overhead).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include <atomic>

namespace mcam::obs {

/// One timed stage of a traced query. `name`/`tag` and note keys are
/// static strings (string literals) by contract - spans never own text.
struct SpanRecord {
  const char* name = "";
  double start_ms = 0.0;    ///< Offset from the trace's start.
  double elapsed_ms = 0.0;
  const char* tag = "";     ///< Optional label, e.g. the kernel backend.
  std::vector<std::pair<const char*, double>> notes;  ///< Domain counters.
};

/// One finished query trace.
struct TraceRecord {
  std::uint64_t id = 0;     ///< Assigned by the sink at record time.
  std::string root;         ///< e.g. "serve.query", "store.<collection>".
  double total_ms = 0.0;
  std::vector<SpanRecord> spans;  ///< In completion order.
};

/// One JSON line for a finished trace (the obs_dump / log-shipper format).
[[nodiscard]] std::string to_json(const TraceRecord& record);

/// An in-flight query's trace. `add` is thread-safe (the serving fronts
/// hand a trace from the caller's thread to a worker); everything else is
/// owned by the serving layer.
class Trace {
 public:
  explicit Trace(std::string root);

  void add(SpanRecord span);
  [[nodiscard]] std::chrono::steady_clock::time_point started() const noexcept {
    return started_;
  }
  /// Closes the trace (total_ms = now - started) and returns the record.
  [[nodiscard]] TraceRecord finish();

 private:
  // lock-order: leaf. Serializes add()/finish() span appends across the
  // threads a trace passes through; held only for the vector push_back.
  std::mutex mutex_;
  TraceRecord record_;
  std::chrono::steady_clock::time_point started_;
};

/// The calling thread's active trace (null = not sampled).
[[nodiscard]] Trace* current_trace() noexcept;

/// Installs `trace` as the calling thread's current trace for the scope
/// (restoring the previous one on exit). A null trace is a no-op install.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(Trace* trace) noexcept;
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  Trace* previous_;
};

/// RAII stage scope. Constructed against an explicit trace pointer (fan-
/// out paths) or the thread's current trace; all members no-op when the
/// trace is null.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) noexcept : TraceSpan(current_trace(), name) {}
  TraceSpan(Trace* trace, const char* name) noexcept : trace_(trace) {
    if (trace_ == nullptr) return;
    span_.name = name;
    started_ = std::chrono::steady_clock::now();
  }
  ~TraceSpan() { close(); }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches a numeric domain counter (key must be a string literal).
  void note(const char* key, double value) {
    if (trace_ != nullptr) span_.notes.emplace_back(key, value);
  }
  /// Attaches the span's tag (a static string, e.g. the kernel backend).
  void tag(const char* value) noexcept {
    if (trace_ != nullptr) span_.tag = value;
  }
  [[nodiscard]] bool active() const noexcept { return trace_ != nullptr; }
  /// Closes the span early (the destructor then does nothing).
  void close();

 private:
  Trace* trace_;
  SpanRecord span_;
  std::chrono::steady_clock::time_point started_;
};

/// 1-in-N trace sampling decision, shared across threads.
///
/// Memory-ordering contract (relaxed atomics are allowed here - src/obs/
/// - with the same rules as obs/metrics.hpp): `counter_` is a single
/// relaxed fetch_add, so concurrent should_sample() calls draw globally
/// unique tickets and the TOTAL number of true decisions over N calls is
/// exactly ceil(N / every) regardless of interleaving (pinned by
/// tests/stress/ StressTrace.SamplerSharedCounterIsExact) - but WHICH
/// caller gets `true` is unspecified, and a set_every() racing
/// should_sample() may apply to an unbounded number of in-flight calls
/// on either side. TSan models both atomics natively; no annotations.
class TraceSampler {
 public:
  /// `every` = N of 1-in-N; 0 disables sampling entirely.
  explicit TraceSampler(std::size_t every = 0) noexcept : every_(every) {}
  void set_every(std::size_t every) noexcept {
    every_.store(every, std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t every() const noexcept {
    return every_.load(std::memory_order_relaxed);
  }
  /// True for the 1st, N+1st, ... call (round-robin across threads).
  [[nodiscard]] bool should_sample() noexcept {
    const std::size_t every = every_.load(std::memory_order_relaxed);
    if (every == 0) return false;
    return counter_.fetch_add(1, std::memory_order_relaxed) % every == 0;
  }

 private:
  std::atomic<std::uint64_t> counter_{0};
  std::atomic<std::size_t> every_;
};

/// Bounded ring of finished traces (oldest evicted past `capacity`).
class TraceSink {
 public:
  explicit TraceSink(std::size_t capacity = 256);

  /// Stamps `record.id` and appends it.
  void record(TraceRecord record);
  /// Oldest-first copy of the retained traces.
  [[nodiscard]] std::vector<TraceRecord> recent() const;
  /// Traces ever recorded (not just retained).
  [[nodiscard]] std::uint64_t recorded_total() const noexcept;
  void clear();

  /// One JSON line per retained trace.
  [[nodiscard]] std::string to_jsonl() const;

  /// The process-wide sink the serving layers record into.
  [[nodiscard]] static TraceSink& global();

 private:
  // lock-order: leaf. Guards the ring, the id stamp, and the total in
  // record()/recent()/recorded_total()/clear(); never held across
  // serialization (to_jsonl copies out via recent() first).
  mutable std::mutex mutex_;
  std::deque<TraceRecord> ring_;
  std::size_t capacity_;
  std::uint64_t next_id_ = 1;
};

/// The 1-in-N default from the MCAM_TRACE_SAMPLE environment variable
/// (read once; 0 / unset / unparsable = 0 = off). Serving configs whose
/// trace_sample is 0 fall back to this, which is how the CI sanitizer job
/// turns on always-on tracing for the whole test suite.
[[nodiscard]] std::size_t env_trace_sample();

/// `config_value` if nonzero, else the MCAM_TRACE_SAMPLE default.
[[nodiscard]] inline std::size_t effective_trace_sample(std::size_t config_value) {
  return config_value != 0 ? config_value : env_trace_sample();
}

}  // namespace mcam::obs
