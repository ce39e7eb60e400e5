// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// histograms behind cheap resolve-once handles.
//
// The serving stack (QueryService, CollectionManager, the benches) needs
// continuous counters - queries by outcome, latency and energy
// distributions, per-kernel-backend query counts - without every layer
// growing its own ad-hoc stats struct. The registry is the one place those
// live:
//
//  - Instruments are *resolved once* (`registry().counter("name")` walks a
//    lock-sharded map) and the returned handle increments a plain atomic
//    thereafter - the hot path never takes a lock and never hashes a
//    string. Handles are trivially copyable and stay valid for the
//    process lifetime (instrument cells are never freed; retiring a
//    series via `remove_labeled` zeroes and *hides* it from snapshots -
//    a tombstone - so outstanding handles keep working).
//  - `snapshot()` returns a point-in-time copy of every instrument,
//    deterministically sorted, which the exporters (obs/exporters.hpp)
//    render as Prometheus text or JSON-lines and tests assert against.
//  - Instruments may carry labels (sorted key=value pairs); the same
//    (name, labels) always resolves to the same cell, so two services
//    incrementing "mcam_serve_requests_total" share one counter.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace mcam::obs {

/// Sorted key=value metric labels (sorted by the registry on resolve).
using Labels = std::vector<std::pair<std::string, std::string>>;

// --- Snapshot data ---------------------------------------------------------

struct CounterSample {
  std::string name;
  Labels labels;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  Labels labels;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  Labels labels;
  /// Inclusive upper bounds of the finite buckets (Prometheus `le`); the
  /// implicit +Inf bucket is counts.back().
  std::vector<double> bounds;
  /// Per-bucket (NON-cumulative) counts, size bounds.size() + 1.
  std::vector<std::uint64_t> counts;
  double sum = 0.0;           ///< Sum of every observed value.
  std::uint64_t count = 0;    ///< Total observations.
};

/// Point-in-time copy of the whole registry, sorted by (name, labels).
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

/// Default latency buckets [ms] shared by the serve/store layers.
[[nodiscard]] std::vector<double> default_latency_buckets_ms();
/// Default per-query energy buckets [J] (log-spaced around the paper's
/// nJ..uJ per-search regime).
[[nodiscard]] std::vector<double> default_energy_buckets_j();

// --- Memory-ordering contract (src/obs/ is the one place relaxed
// atomics are allowed; scripts/check_invariants.py enforces the border).
//
// Every instrument field is an individual std::atomic updated with
// memory_order_relaxed. That buys the cheapest possible hot path
// (inc()/observe() are single uncontended RMWs with no fences) and costs
// exactly one guarantee: *cross-field consistency while updates are in
// flight*. The contract, pinned by
// tests/stress/ StressMetrics.HistogramSnapshotDuringIncrementsPinnedContract:
//
//  - Per field, torn-free and monotone: a snapshot never sees a half
//    written value, and counters / histogram counts never move backward
//    across successive snapshots (gauges may - set() is last-writer-wins).
//  - Across fields, NO joint consistency mid-flight: a histogram snapshot
//    may show a bucket increment whose `count` increment is not visible
//    yet (observe() writes bucket, then count, then sum, all relaxed), so
//    `sum(counts) == count` holds only at quiescence. Exporters and
//    dashboards must treat the fields as independently-sampled streams.
//  - Quiescent exactness: after every incrementing thread has finished
//    (joined, or otherwise synchronized-with the reader), a snapshot is
//    exact - relaxed RMWs never lose increments, and the thread join
//    provides the happens-before edge that publishes them.
//
// TSan models these atomics natively: the relaxed ops are *not* data
// races and need no annotations from src/util/tsan.hpp.

namespace detail {
// `hidden` is the remove_labeled tombstone: set under the owning shard's
// mutex and only ever read under it (snapshot/resolve), so it is a plain
// bool - the lock-free handle ops never touch it.
struct CounterCell {
  std::atomic<std::uint64_t> value{0};
  bool hidden = false;
};
struct GaugeCell {
  std::atomic<double> value{0.0};
  bool hidden = false;
};
struct HistogramCell {
  explicit HistogramCell(std::vector<double> upper_bounds);
  /// Relaxed writes in bucket -> count -> sum order; see the contract
  /// block above for what a concurrent snapshot may observe.
  void observe(double x) noexcept;
  const std::vector<double> bounds;            ///< Ascending, deduped.
  std::vector<std::atomic<std::uint64_t>> counts;  ///< bounds.size() + 1.
  std::atomic<double> sum{0.0};
  std::atomic<std::uint64_t> count{0};
  bool hidden = false;
};
}  // namespace detail

/// Monotone counter handle. Default-constructed handles are inert no-ops
/// (so members can be declared before the registry resolves them).
class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t delta = 1) const noexcept {
    if (cell_ != nullptr) cell_->value.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return cell_ != nullptr ? cell_->value.load(std::memory_order_relaxed) : 0;
  }

 private:
  friend class Registry;
  explicit Counter(detail::CounterCell* cell) noexcept : cell_(cell) {}
  detail::CounterCell* cell_ = nullptr;
};

/// Last-write-wins gauge handle.
class Gauge {
 public:
  Gauge() = default;
  void set(double value) const noexcept {
    if (cell_ != nullptr) cell_->value.store(value, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const noexcept {
    return cell_ != nullptr ? cell_->value.load(std::memory_order_relaxed) : 0.0;
  }

 private:
  friend class Registry;
  explicit Gauge(detail::GaugeCell* cell) noexcept : cell_(cell) {}
  detail::GaugeCell* cell_ = nullptr;
};

/// Fixed-bucket histogram handle. `observe` is wait-free (atomic bucket
/// increment + atomic sum accumulate); out-of-range samples land in the
/// implicit +Inf bucket, never clamped into the last finite one.
class Histogram {
 public:
  Histogram() = default;
  void observe(double x) const noexcept {
    if (cell_ != nullptr) cell_->observe(x);
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return cell_ != nullptr ? cell_->count.load(std::memory_order_relaxed) : 0;
  }
  [[nodiscard]] double sum() const noexcept {
    return cell_ != nullptr ? cell_->sum.load(std::memory_order_relaxed) : 0.0;
  }

 private:
  friend class Registry;
  explicit Histogram(detail::HistogramCell* cell) noexcept : cell_(cell) {}
  detail::HistogramCell* cell_ = nullptr;
};

/// Lock-sharded instrument registry. Resolution (the `counter` /
/// `gauge` / `histogram` calls) locks only the shard owning the name;
/// the returned handles never lock. Instruments live until process exit.
class Registry {
 public:
  Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;
  ~Registry();

  /// Resolves (creating on first use) the counter named `name` with
  /// `labels`. Throws std::invalid_argument on an empty name or when the
  /// (name, labels) pair is already registered as a different kind.
  [[nodiscard]] Counter counter(const std::string& name, Labels labels = {});
  [[nodiscard]] Gauge gauge(const std::string& name, Labels labels = {});
  /// `bounds` are the inclusive finite bucket upper bounds (sorted and
  /// deduped on registration; must be non-empty). Re-resolving an
  /// existing histogram with different bounds throws.
  [[nodiscard]] Histogram histogram(const std::string& name, std::vector<double> bounds,
                                    Labels labels = {});

  /// Deterministic point-in-time copy of every instrument.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zeroes every instrument's value (instruments and handles stay
  /// valid) - for tests and benches that need a clean slate.
  void reset();

  /// Retires every instrument (any kind) carrying the label pair
  /// `label_key=label_value`: each matching cell is zeroed and hidden
  /// from snapshot() - a tombstone, never a free, so outstanding handles
  /// stay valid (their writes just stop exporting). Re-resolving the same
  /// (name, labels) revives the series from zero, which is what keeps a
  /// drop/recreate cycle from double-reporting. Returns how many
  /// instruments were retired. CollectionManager::drop_collection calls
  /// this with ("collection", name) so a dropped collection's labeled
  /// series disappear from exports.
  std::size_t remove_labeled(const std::string& label_key, const std::string& label_value);

  /// The process-wide registry the serving stack records into.
  [[nodiscard]] static Registry& global();

 private:
  struct Shard;
  [[nodiscard]] Shard& shard_for(const std::string& name) const;

  static constexpr std::size_t kShards = 8;
  std::unique_ptr<Shard[]> shards_;  ///< Array of kShards (Shard defined in the .cpp).
};

/// Shorthand for Registry::global().
[[nodiscard]] inline Registry& registry() { return Registry::global(); }

/// Shorthand for Registry::global().snapshot().
[[nodiscard]] inline MetricsSnapshot snapshot() { return Registry::global().snapshot(); }

}  // namespace mcam::obs
