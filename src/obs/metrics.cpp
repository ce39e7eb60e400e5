#include "obs/metrics.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace mcam::obs {

std::vector<double> default_latency_buckets_ms() {
  return {0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
          2.5,  5.0,   10.0, 25.0, 50.0, 100.0, 250.0, 1000.0};
}

std::vector<double> default_energy_buckets_j() {
  // Log-spaced through the per-search regime the energy model reports:
  // single-bank TCAM sweeps land in nJ, multi-probe sharded MCAM fan-outs
  // in uJ; everything hotter spills into +Inf and is visible as such.
  return {1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3};
}

namespace detail {

HistogramCell::HistogramCell(std::vector<double> upper_bounds)
    : bounds(std::move(upper_bounds)), counts(bounds.size() + 1) {}

void HistogramCell::observe(double x) noexcept {
  // First bucket whose inclusive upper bound admits x; past every finite
  // bound the sample lands in the trailing +Inf bucket.
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), x);
  const auto bucket = static_cast<std::size_t>(it - bounds.begin());
  counts[bucket].fetch_add(1, std::memory_order_relaxed);
  count.fetch_add(1, std::memory_order_relaxed);
  // fetch_add on atomic<double> (C++20) - a CAS loop on most targets,
  // which is fine: observe() is already several atomics deep.
  sum.fetch_add(x, std::memory_order_relaxed);
}

}  // namespace detail

namespace {

/// Map key: name + sorted labels, compared lexicographically.
struct InstrumentKey {
  std::string name;
  Labels labels;
  bool operator<(const InstrumentKey& other) const {
    if (name != other.name) return name < other.name;
    return labels < other.labels;
  }
};

Labels normalized(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

}  // namespace

struct Registry::Shard {
  // lock-order: leaf. Guards this shard's instrument maps during
  // resolve/snapshot/reset only; no other lock is ever acquired while a
  // shard mutex is held, and snapshot() walks shards one at a time.
  mutable std::mutex mutex;
  std::map<InstrumentKey, std::unique_ptr<detail::CounterCell>> counters;
  std::map<InstrumentKey, std::unique_ptr<detail::GaugeCell>> gauges;
  std::map<InstrumentKey, std::unique_ptr<detail::HistogramCell>> histograms;
};

Registry::Registry() : shards_(std::make_unique<Shard[]>(kShards)) {}
Registry::~Registry() = default;

Registry::Shard& Registry::shard_for(const std::string& name) const {
  return shards_[std::hash<std::string>{}(name) % kShards];
}

Counter Registry::counter(const std::string& name, Labels labels) {
  if (name.empty()) throw std::invalid_argument{"obs::Registry: empty metric name"};
  Shard& shard = shard_for(name);
  InstrumentKey key{name, normalized(std::move(labels))};
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.gauges.count(key) != 0 || shard.histograms.count(key) != 0) {
    throw std::invalid_argument{"obs::Registry: '" + name +
                                "' is already registered as a different kind"};
  }
  auto& cell = shard.counters[std::move(key)];
  if (!cell) cell = std::make_unique<detail::CounterCell>();
  cell->hidden = false;  // Re-resolving a tombstoned series revives it.
  return Counter{cell.get()};
}

Gauge Registry::gauge(const std::string& name, Labels labels) {
  if (name.empty()) throw std::invalid_argument{"obs::Registry: empty metric name"};
  Shard& shard = shard_for(name);
  InstrumentKey key{name, normalized(std::move(labels))};
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.counters.count(key) != 0 || shard.histograms.count(key) != 0) {
    throw std::invalid_argument{"obs::Registry: '" + name +
                                "' is already registered as a different kind"};
  }
  auto& cell = shard.gauges[std::move(key)];
  if (!cell) cell = std::make_unique<detail::GaugeCell>();
  cell->hidden = false;  // Re-resolving a tombstoned series revives it.
  return Gauge{cell.get()};
}

Histogram Registry::histogram(const std::string& name, std::vector<double> bounds,
                              Labels labels) {
  if (name.empty()) throw std::invalid_argument{"obs::Registry: empty metric name"};
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  if (bounds.empty()) {
    throw std::invalid_argument{"obs::Registry: histogram '" + name + "' needs buckets"};
  }
  Shard& shard = shard_for(name);
  InstrumentKey key{name, normalized(std::move(labels))};
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.counters.count(key) != 0 || shard.gauges.count(key) != 0) {
    throw std::invalid_argument{"obs::Registry: '" + name +
                                "' is already registered as a different kind"};
  }
  auto& cell = shard.histograms[std::move(key)];
  if (!cell) {
    cell = std::make_unique<detail::HistogramCell>(std::move(bounds));
  } else if (cell->bounds != bounds) {
    // Two call sites disagreeing on the bucket layout of one metric is a
    // bug worth failing loudly on: their observations would be
    // incomparable.
    throw std::invalid_argument{"obs::Registry: histogram '" + name +
                                "' re-registered with different buckets"};
  }
  cell->hidden = false;  // Re-resolving a tombstoned series revives it.
  return Histogram{cell.get()};
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot out;
  for (std::size_t s = 0; s < kShards; ++s) {
    const Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [key, cell] : shard.counters) {
      if (cell->hidden) continue;
      out.counters.push_back(
          CounterSample{key.name, key.labels, cell->value.load(std::memory_order_relaxed)});
    }
    for (const auto& [key, cell] : shard.gauges) {
      if (cell->hidden) continue;
      out.gauges.push_back(
          GaugeSample{key.name, key.labels, cell->value.load(std::memory_order_relaxed)});
    }
    for (const auto& [key, cell] : shard.histograms) {
      if (cell->hidden) continue;
      HistogramSample sample;
      sample.name = key.name;
      sample.labels = key.labels;
      sample.bounds = cell->bounds;
      sample.counts.reserve(cell->counts.size());
      for (const auto& bucket : cell->counts) {
        sample.counts.push_back(bucket.load(std::memory_order_relaxed));
      }
      sample.sum = cell->sum.load(std::memory_order_relaxed);
      sample.count = cell->count.load(std::memory_order_relaxed);
      out.histograms.push_back(std::move(sample));
    }
  }
  // Shard order is hash order; sort so exports and tests are
  // deterministic regardless of the shard layout.
  const auto by_key = [](const auto& a, const auto& b) {
    if (a.name != b.name) return a.name < b.name;
    return a.labels < b.labels;
  };
  std::sort(out.counters.begin(), out.counters.end(), by_key);
  std::sort(out.gauges.begin(), out.gauges.end(), by_key);
  std::sort(out.histograms.begin(), out.histograms.end(), by_key);
  return out;
}

void Registry::reset() {
  for (std::size_t s = 0; s < kShards; ++s) {
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto& [key, cell] : shard.counters) {
      cell->value.store(0, std::memory_order_relaxed);
    }
    for (auto& [key, cell] : shard.gauges) {
      cell->value.store(0.0, std::memory_order_relaxed);
    }
    for (auto& [key, cell] : shard.histograms) {
      for (auto& bucket : cell->counts) bucket.store(0, std::memory_order_relaxed);
      cell->sum.store(0.0, std::memory_order_relaxed);
      cell->count.store(0, std::memory_order_relaxed);
    }
  }
}

std::size_t Registry::remove_labeled(const std::string& label_key,
                                     const std::string& label_value) {
  const auto matches = [&](const InstrumentKey& key) {
    for (const auto& [k, v] : key.labels) {
      if (k == label_key && v == label_value) return true;
    }
    return false;
  };
  std::size_t removed = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto& [key, cell] : shard.counters) {
      if (cell->hidden || !matches(key)) continue;
      cell->value.store(0, std::memory_order_relaxed);
      cell->hidden = true;
      ++removed;
    }
    for (auto& [key, cell] : shard.gauges) {
      if (cell->hidden || !matches(key)) continue;
      cell->value.store(0.0, std::memory_order_relaxed);
      cell->hidden = true;
      ++removed;
    }
    for (auto& [key, cell] : shard.histograms) {
      if (cell->hidden || !matches(key)) continue;
      for (auto& bucket : cell->counts) bucket.store(0, std::memory_order_relaxed);
      cell->sum.store(0.0, std::memory_order_relaxed);
      cell->count.store(0, std::memory_order_relaxed);
      cell->hidden = true;
      ++removed;
    }
  }
  return removed;
}

Registry& Registry::global() {
  // Leaked on purpose: handles resolved anywhere in the process must stay
  // valid through every static destructor.
  static Registry* registry = new Registry();  // invariant-ok: naked-new (leaked singleton)
  return *registry;
}

}  // namespace mcam::obs
