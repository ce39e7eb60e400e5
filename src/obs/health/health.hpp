// Online quality & device-health monitoring for the serving stack.
//
// The paper's value proposition is that the MCAM answers *approximately*
// like exact NN under device non-idealities (Vth variation, faults,
// retention drift - Fig. 5 / Fig. 8). The metrics/tracing layer (PR 8)
// reports latency, energy, and candidate counts, but nothing tells an
// operator "recall is degrading" or "bank 3's cells have drifted". This
// module closes that gap with two independent monitors plus an SLO layer:
//
//  - RecallCanary: the serving layer samples 1-in-N completed queries
//    (the TraceSampler ticket mechanism) and re-executes them through the
//    exact fine path (`query_subset` over every live row bypasses the
//    coarse stage) on a low-priority background worker, producing a
//    windowed online recall@k estimate, mean rank displacement, and
//    coarse-stage miss counts. The canary only *observes*: with sampling
//    off (the default) served results are bit-identical and the hot-path
//    cost is one constant-false branch, gated <= 2% by
//    bench_health_overhead.
//  - HealthMonitor + scrub_index: periodically sweeps every CAM bank of
//    an index (McamArray/TcamArray row readback vs the programmed
//    levels), scoring per-bank drift / stuck-cell statistics. The
//    `drift_sigma=` spec key injects testable drift the same way
//    vth_sigma injects programming noise; `inject_drift` perturbs an
//    already-programmed index mid-run for end-to-end detection tests.
//  - SLO instruments: mcam_health_recall_estimate (gauge),
//    mcam_health_canary_total (counter), mcam_health_bank_drift_score
//    (gauge, {bank=}), and the edge-triggered alarm counter
//    mcam_health_alarms_total{kind=recall|drift}; HealthReport is the
//    machine-readable JSON snapshot (obs::exporters::to_json).
//
// Nothing here is persisted by snapshots: canary/scrub statistics restart
// at zero on restore, and drift itself is *cured* by restore (load_state
// replays the row writes, i.e. reprograms the cells).
#pragma once

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/statistics.hpp"

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace mcam::search {
class NnIndex;
}

namespace mcam::obs::health {

// --- Report data -----------------------------------------------------------

/// Recall-canary knobs.
struct CanaryOptions {
  /// Re-execute 1 in `sample_every` completed queries; 0 = off (no worker
  /// thread, no per-query cost beyond one constant-false branch).
  std::size_t sample_every = 0;
  /// Sliding window of canary executions the estimates average over.
  std::size_t window = 128;
  /// Don't evaluate the recall alarm below this many windowed samples.
  std::size_t min_samples = 8;
  /// Edge-triggered alarm when the windowed recall estimate falls below
  /// this threshold (and clears when it recovers).
  double recall_alarm_below = 0.90;
  /// Bounded canary queue; excess samples are dropped (counted), never
  /// blocking the serving path.
  std::size_t queue_capacity = 64;
};

/// Point-in-time canary statistics.
struct CanaryReport {
  std::uint64_t sampled = 0;   ///< Queries the ticket selected.
  std::uint64_t executed = 0;  ///< Canaries re-executed against ground truth.
  std::uint64_t stale = 0;     ///< Skipped: the index mutated before re-execution.
  std::uint64_t dropped = 0;   ///< Skipped: canary queue full (or stopped).
  std::size_t window = 0;      ///< Samples behind the current estimates.
  /// Windowed mean recall@k of served vs exact results; 1.0 until the
  /// first canary lands (no evidence of degradation).
  double recall_estimate = 1.0;
  /// Windowed mean |served rank - exact rank| over the exact top-k
  /// (missing ids count as rank k, one past the end).
  double mean_rank_displacement = 0.0;
  /// Cumulative exact-top-k ids the served (coarse-nominated) results
  /// missed entirely.
  std::uint64_t coarse_misses = 0;
  std::uint64_t alarms = 0;    ///< Recall alarm edges fired.
  bool alarm_active = false;   ///< Currently below the recall threshold.
};

/// Readback-vs-intended statistics of one CAM bank (aggregated over its
/// live rows by scrub_index).
struct BankHealth {
  /// Bank path within the index, e.g. "mcam", "coarse", "fine/mcam",
  /// "bank3/mcam" (sharded banks are prefixed "bankN/").
  std::string bank;
  std::size_t rows = 0;              ///< Live rows scanned.
  std::size_t cells = 0;             ///< Cells scanned (incl. faulty).
  std::size_t mismatched_cells = 0;  ///< Readback state != programmed target.
  std::size_t faulty_cells = 0;      ///< Stuck-short / stuck-open cells.
  /// mismatched / (cells - faulty): the fraction of healthy cells whose
  /// effective Vth drifted across a level-window boundary. 0 when empty.
  double drift_score = 0.0;
  double mean_abs_shift_v = 0.0;     ///< Mean per-cell max |Vth offset| [V].
  double max_abs_shift_v = 0.0;      ///< Largest |Vth offset| seen [V].
};

/// Device-health monitor knobs.
struct MonitorOptions {
  /// Background scrub cadence; 0 = no thread, scrub_now() only.
  std::chrono::milliseconds scrub_period{0};
  /// Edge-triggered drift alarm when any bank's drift_score exceeds this.
  double drift_alarm_above = 0.02;
};

/// The machine-readable health snapshot (obs::exporters::to_json).
struct HealthReport {
  CanaryReport canary;             ///< Zeroed when no canary is attached.
  std::vector<BankHealth> banks;   ///< Last completed scrub, per bank.
  std::uint64_t scrubs = 0;        ///< Scrub sweeps completed.
  std::uint64_t drift_alarms = 0;  ///< Drift alarm edges fired.
  bool drift_alarm_active = false;
};

// --- Pure device-scrub helpers (device-model code over the cam layer) ------

/// Sweeps every CAM bank reachable from `index` - McamNnEngine,
/// TcamLshEngine, TwoStageNnIndex (coarse TCAM + fine stage), and
/// ShardedNnIndex (per-bank, labels prefixed "bankN/") - comparing each
/// live row's readback against its programmed levels. Software engines
/// have no cells and contribute nothing; empty/uncalibrated engines are
/// skipped. The caller owns the index's usual read synchronization.
[[nodiscard]] std::vector<BankHealth> scrub_index(const search::NnIndex& index);

/// Injects retention drift into every CAM bank reachable from `index`
/// (per-bank derived seeds, so banks drift independently); see
/// McamArray::apply_drift. Returns the number of cells perturbed. The
/// caller owns the index's exclusive synchronization.
std::size_t inject_drift(search::NnIndex& index, double sigma, std::uint64_t seed);

/// Re-executes a canary query against ground truth: the exact top-k ids
/// for (query, k), or std::nullopt when the index has mutated past
/// `generation` (the canary counts it stale) - the owner's lambda holds
/// its own lock and generation check. Must never observe tombstoned rows
/// (query_subset's contract guarantees this for the built-in owners).
using GroundTruthFn = std::function<std::optional<std::vector<std::size_t>>(
    std::span<const float> query, std::size_t k, std::uint64_t generation)>;

/// Sweeps the owner's index under the owner's lock (HealthMonitor never
/// holds its own lock across the call).
using ScrubFn = std::function<std::vector<BankHealth>()>;

/// Online recall estimator over sampled completed queries. The serving
/// layer calls the two-phase hot path - `should_sample()` (one relaxed
/// ticket draw) and, only on a win, `enqueue()` (copies the query) - and
/// a single low-priority worker re-executes each sample through
/// `ground_truth` with *no canary lock held* (the callback takes the
/// owner's index lock). Instruments: mcam_health_recall_estimate,
/// mcam_health_canary_total, mcam_health_alarms_total{kind=recall}, all
/// carrying the constructor's extra labels (e.g. {collection=}).
class RecallCanary {
 public:
  /// No worker thread is spawned when options.sample_every is 0 or
  /// `ground_truth` is null (should_sample() then stays false).
  RecallCanary(CanaryOptions options, GroundTruthFn ground_truth, Labels labels = {});
  ~RecallCanary();
  RecallCanary(const RecallCanary&) = delete;
  RecallCanary& operator=(const RecallCanary&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return worker_.joinable(); }

  /// 1-in-N ticket draw (TraceSampler); constant false when disabled.
  [[nodiscard]] bool should_sample() noexcept { return sampler_.should_sample(); }

  /// Queues one sampled query for background re-execution. `served_ids`
  /// are the ids the serving path answered with (nearest first);
  /// `generation` is the index's mutation stamp at serving time. Drops
  /// (and counts) the sample when the queue is full or stopped.
  void enqueue(std::vector<float> query, std::size_t k,
               std::vector<std::size_t> served_ids, std::uint64_t generation);

  /// Blocks until every queued canary has been executed (tests/benches).
  void drain();

  /// Stops and joins the worker after draining the queue. Idempotent;
  /// the destructor calls it.
  void stop();

  [[nodiscard]] CanaryReport report() const;

 private:
  struct Task {
    std::vector<float> query;
    std::size_t k = 0;
    std::vector<std::size_t> served_ids;
    std::uint64_t generation = 0;
  };

  void worker_loop();
  /// Scores one executed canary; caller holds mutex_.
  void record_locked(const Task& task, const std::vector<std::size_t>& exact);

  CanaryOptions options_;
  GroundTruthFn ground_truth_;
  TraceSampler sampler_;
  Gauge recall_gauge_;
  Counter canary_counter_;
  Counter alarm_counter_;

  // lock-order: leaf. Guards the queue and the statistics below; never
  // held across ground_truth_ (which takes the owner's index lock), so
  // it can never participate in a cycle with the serving locks.
  mutable std::mutex mutex_;
  std::condition_variable cv_;       ///< Wakes the worker (new task / stop).
  std::condition_variable idle_cv_;  ///< Wakes drain() (queue empty + idle).
  std::deque<Task> queue_;
  bool stopping_ = false;
  bool executing_ = false;  ///< Worker is between pop and record.
  std::uint64_t sampled_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t stale_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t coarse_misses_ = 0;
  std::uint64_t alarms_ = 0;
  bool alarm_active_ = false;
  PercentileWindow recall_window_;
  PercentileWindow displacement_window_;

  std::thread worker_;  ///< Last member: joined by stop() before the rest dies.
};

/// Periodic device-health scrubber + alarm aggregator over an owner-
/// provided ScrubFn (which locks and sweeps the owner's index). Publishes
/// mcam_health_bank_drift_score{bank=} gauges and the edge-triggered
/// mcam_health_alarms_total{kind=drift} counter; report() combines the
/// last scrub with the (optional) attached canary's statistics.
class HealthMonitor {
 public:
  /// `canary` (borrowed, may be null) must outlive the monitor. A worker
  /// thread runs only when options.scrub_period > 0.
  HealthMonitor(MonitorOptions options, ScrubFn scrub,
                const RecallCanary* canary = nullptr, Labels labels = {});
  ~HealthMonitor();
  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Runs one synchronous scrub sweep (also what the periodic worker
  /// calls), updates gauges/alarms, and returns the per-bank statistics.
  std::vector<BankHealth> scrub_now();

  /// Stops and joins the periodic worker. Idempotent; destructor calls it.
  void stop();

  [[nodiscard]] HealthReport report() const;

 private:
  void worker_loop();

  MonitorOptions options_;
  ScrubFn scrub_;
  const RecallCanary* canary_;
  Labels labels_;
  Counter drift_alarm_counter_;

  // lock-order: leaf. Guards the last-scrub results and alarm state;
  // never held across scrub_() (which takes the owner's index lock) or
  // canary_->report() (its own leaf lock is taken first, unnested).
  mutable std::mutex mutex_;
  std::condition_variable cv_;  ///< Wakes the periodic worker early on stop.
  bool stopping_ = false;
  std::vector<BankHealth> last_banks_;
  std::uint64_t scrubs_ = 0;
  std::uint64_t drift_alarms_ = 0;
  bool drift_alarm_active_ = false;

  std::thread worker_;  ///< Last member: joined by stop() before the rest dies.
};

}  // namespace mcam::obs::health
