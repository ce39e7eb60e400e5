#include "obs/trace.hpp"

#include <cstdlib>

#include "obs/exporters.hpp"

namespace mcam::obs {

namespace {

std::string span_json(const SpanRecord& span) {
  using detail::escape_json;
  using detail::format_number;
  // Appends (not operator+ chains): gcc 12's -Wrestrict false-positives
  // on `const char* + std::string&&` at -O2 (GCC PR105651).
  std::string out = "{\"name\":\"";
  out += escape_json(span.name);
  out += "\",\"start_ms\":";
  out += format_number(span.start_ms);
  out += ",\"elapsed_ms\":";
  out += format_number(span.elapsed_ms);
  if (span.tag[0] != '\0') {
    out += ",\"tag\":\"";
    out += escape_json(span.tag);
    out += "\"";
  }
  if (!span.notes.empty()) {
    out += ",\"notes\":{";
    bool first = true;
    for (const auto& [key, value] : span.notes) {
      if (!first) out += ",";
      first = false;
      out += "\"";
      out += escape_json(key);
      out += "\":";
      out += format_number(value);
    }
    out += "}";
  }
  out += "}";
  return out;
}

}  // namespace

std::string to_json(const TraceRecord& record) {
  using detail::escape_json;
  using detail::format_number;
  std::string out = "{\"trace\":\"";
  out += escape_json(record.root);
  out += "\",\"id\":";
  out += std::to_string(record.id);
  out += ",\"total_ms\":";
  out += format_number(record.total_ms);
  out += ",\"spans\":[";
  for (std::size_t i = 0; i < record.spans.size(); ++i) {
    if (i > 0) out += ",";
    out += span_json(record.spans[i]);
  }
  out += "]}";
  return out;
}

std::size_t env_trace_sample() {
  static const std::size_t value = [] {
    const char* raw = std::getenv("MCAM_TRACE_SAMPLE");
    if (raw == nullptr) return std::size_t{0};
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(raw, &end, 10);
    if (end == raw || (end != nullptr && *end != '\0')) return std::size_t{0};
    return static_cast<std::size_t>(parsed);
  }();
  return value;
}

namespace {

double ms_between(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

thread_local Trace* g_current_trace = nullptr;

}  // namespace

Trace::Trace(std::string root) : started_(std::chrono::steady_clock::now()) {
  record_.root = std::move(root);
}

void Trace::add(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mutex_);
  record_.spans.push_back(std::move(span));
}

TraceRecord Trace::finish() {
  std::lock_guard<std::mutex> lock(mutex_);
  record_.total_ms = ms_between(started_, std::chrono::steady_clock::now());
  return std::move(record_);
}

Trace* current_trace() noexcept { return g_current_trace; }

ScopedTraceContext::ScopedTraceContext(Trace* trace) noexcept
    : previous_(g_current_trace) {
  if (trace != nullptr) g_current_trace = trace;
}

ScopedTraceContext::~ScopedTraceContext() { g_current_trace = previous_; }

void TraceSpan::close() {
  if (trace_ == nullptr) return;
  const auto now = std::chrono::steady_clock::now();
  span_.start_ms = ms_between(trace_->started(), started_);
  span_.elapsed_ms = ms_between(started_, now);
  trace_->add(std::move(span_));
  trace_ = nullptr;
}

TraceSink::TraceSink(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

void TraceSink::record(TraceRecord record) {
  std::lock_guard<std::mutex> lock(mutex_);
  record.id = next_id_++;
  ring_.push_back(std::move(record));
  while (ring_.size() > capacity_) ring_.pop_front();
}

std::vector<TraceRecord> TraceSink::recent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {ring_.begin(), ring_.end()};
}

std::uint64_t TraceSink::recorded_total() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_ - 1;
}

void TraceSink::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
}

std::string TraceSink::to_jsonl() const {
  std::string out;
  for (const TraceRecord& record : recent()) {
    out += to_json(record);
    out += "\n";
  }
  return out;
}

TraceSink& TraceSink::global() {
  // Leaked on purpose, like Registry::global(): worker threads may record
  // into it during static destruction.
  static TraceSink* sink = new TraceSink();  // invariant-ok: naked-new (leaked singleton)
  return *sink;
}

}  // namespace mcam::obs
