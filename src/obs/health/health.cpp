#include "obs/health/health.hpp"

#include "search/engine.hpp"
#include "search/refine.hpp"
#include "search/sharded.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <string>

namespace mcam::obs::health {

namespace {

/// Aggregates one array's live-row RowHealth stats into a BankHealth.
/// Template: McamArray and TcamArray share the row_valid/row_health shape
/// but no base class (they are distinct device models).
template <typename Array>
BankHealth bank_health_of(const Array& array, std::string label) {
  BankHealth health;
  health.bank = std::move(label);
  for (std::size_t r = 0; r < array.num_rows(); ++r) {
    if (!array.row_valid(r)) continue;
    const cam::RowHealth row = array.row_health(r);
    ++health.rows;
    health.cells += row.cells;
    health.mismatched_cells += row.mismatched;
    health.faulty_cells += row.faulty;
    health.mean_abs_shift_v += row.sum_abs_shift_v;  // Sum for now; divided below.
    health.max_abs_shift_v = std::max(health.max_abs_shift_v, row.max_abs_shift_v);
  }
  const std::size_t healthy = health.cells - health.faulty_cells;
  if (healthy > 0) {
    health.drift_score =
        static_cast<double>(health.mismatched_cells) / static_cast<double>(healthy);
    health.mean_abs_shift_v /= static_cast<double>(healthy);
  } else {
    health.mean_abs_shift_v = 0.0;
  }
  return health;
}

void scrub_into(const search::NnIndex& index, const std::string& prefix,
                std::vector<BankHealth>& out) {
  if (const auto* mcam = dynamic_cast<const search::McamNnEngine*>(&index)) {
    if (mcam->size() > 0) out.push_back(bank_health_of(mcam->array(), prefix + "mcam"));
    return;
  }
  if (const auto* tcam = dynamic_cast<const search::TcamLshEngine*>(&index)) {
    if (tcam->size() > 0) out.push_back(bank_health_of(tcam->tcam(), prefix + "tcam"));
    return;
  }
  if (const auto* two = dynamic_cast<const search::TwoStageNnIndex*>(&index)) {
    // size() > 0 implies the coarse stage is calibrated and programmed.
    if (two->size() > 0) {
      out.push_back(bank_health_of(two->coarse_tcam(), prefix + "coarse"));
      scrub_into(two->fine(), prefix + "fine/", out);
    }
    return;
  }
  if (const auto* sharded = dynamic_cast<const search::ShardedNnIndex*>(&index)) {
    for (std::size_t b = 0; b < sharded->num_banks(); ++b) {
      scrub_into(sharded->bank(b), prefix + "bank" + std::to_string(b) + "/", out);
    }
    return;
  }
  // Software engines: no CAM cells to scrub.
}

std::size_t inject_into(search::NnIndex& index, double sigma, std::uint64_t seed) {
  if (auto* mcam = dynamic_cast<search::McamNnEngine*>(&index)) {
    return mcam->size() > 0 ? mcam->array().apply_drift(sigma, seed) : 0;
  }
  if (auto* tcam = dynamic_cast<search::TcamLshEngine*>(&index)) {
    return tcam->size() > 0 ? tcam->tcam().apply_drift(sigma, seed) : 0;
  }
  if (auto* two = dynamic_cast<search::TwoStageNnIndex*>(&index)) {
    if (two->size() == 0) return 0;
    std::size_t cells = two->coarse_tcam().apply_drift(sigma, seed);
    cells += inject_into(two->fine(), sigma, seed ^ 0x9e3779b97f4a7c15ULL);
    return cells;
  }
  if (auto* sharded = dynamic_cast<search::ShardedNnIndex*>(&index)) {
    std::size_t cells = 0;
    for (std::size_t b = 0; b < sharded->num_banks(); ++b) {
      // Per-bank derived seeds: banks drift independently, like separate
      // physical arrays aging on their own.
      cells += inject_into(sharded->bank(b), sigma,
                           seed + (b + 1) * 0x9e3779b97f4a7c15ULL);
    }
    return cells;
  }
  return 0;
}

}  // namespace

std::vector<BankHealth> scrub_index(const search::NnIndex& index) {
  std::vector<BankHealth> banks;
  scrub_into(index, "", banks);
  return banks;
}

std::size_t inject_drift(search::NnIndex& index, double sigma, std::uint64_t seed) {
  if (sigma <= 0.0) return 0;
  return inject_into(index, sigma, seed);
}

RecallCanary::RecallCanary(CanaryOptions options, GroundTruthFn ground_truth,
                           Labels labels)
    : options_(options),
      ground_truth_(std::move(ground_truth)),
      recall_window_(std::max<std::size_t>(options.window, 1)),
      displacement_window_(std::max<std::size_t>(options.window, 1)) {
  if (options_.sample_every == 0 || !ground_truth_) return;
  recall_gauge_ = registry().gauge("mcam_health_recall_estimate", labels);
  canary_counter_ = registry().counter("mcam_health_canary_total", labels);
  Labels alarm_labels = labels;
  alarm_labels.emplace_back("kind", "recall");
  alarm_counter_ = registry().counter("mcam_health_alarms_total", alarm_labels);
  recall_gauge_.set(1.0);  // No evidence of degradation yet.
  sampler_.set_every(options_.sample_every);
  worker_ = std::thread([this] { worker_loop(); });
}

RecallCanary::~RecallCanary() { stop(); }

void RecallCanary::enqueue(std::vector<float> query, std::size_t k,
                           std::vector<std::size_t> served_ids,
                           std::uint64_t generation) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++sampled_;
    // No worker (disabled canary), stopping, or full queue: drop, never
    // block or accumulate - the serving path must stay unaffected.
    if (!worker_.joinable() || stopping_ || queue_.size() >= options_.queue_capacity) {
      ++dropped_;
      return;
    }
    queue_.push_back(Task{std::move(query), k, std::move(served_ids), generation});
  }
  cv_.notify_one();
}

void RecallCanary::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && !executing_; });
}

void RecallCanary::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  // The worker drained the queue before exiting (or never ran); release
  // any drain() caller that was waiting on it.
  idle_cv_.notify_all();
}

CanaryReport RecallCanary::report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  CanaryReport report;
  report.sampled = sampled_;
  report.executed = executed_;
  report.stale = stale_;
  report.dropped = dropped_;
  report.window = recall_window_.size();
  if (!recall_window_.empty()) report.recall_estimate = recall_window_.mean();
  report.mean_rank_displacement = displacement_window_.mean();
  report.coarse_misses = coarse_misses_;
  report.alarms = alarms_;
  report.alarm_active = alarm_active_;
  return report;
}

void RecallCanary::worker_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained.
      task = std::move(queue_.front());
      queue_.pop_front();
      executing_ = true;
    }
    std::optional<std::vector<std::size_t>> exact;
    try {
      exact = ground_truth_(task.query, task.k, task.generation);
    } catch (const std::exception&) {
      exact = std::nullopt;  // Unservable (e.g. shutdown mid-drain): stale.
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      executing_ = false;
      if (exact.has_value()) {
        record_locked(task, *exact);
      } else {
        ++stale_;
      }
      if (queue_.empty()) idle_cv_.notify_all();
    }
  }
}

void RecallCanary::record_locked(const Task& task,
                                 const std::vector<std::size_t>& exact) {
  ++executed_;
  canary_counter_.inc();
  double recall = 1.0;
  double displacement = 0.0;
  if (!exact.empty()) {
    std::size_t hits = 0;
    double displacement_sum = 0.0;
    for (std::size_t rank = 0; rank < exact.size(); ++rank) {
      const auto it =
          std::find(task.served_ids.begin(), task.served_ids.end(), exact[rank]);
      const std::size_t served_rank =
          it != task.served_ids.end()
              ? static_cast<std::size_t>(it - task.served_ids.begin())
              : task.served_ids.size();  // Missing: one past the served end.
      if (it != task.served_ids.end()) ++hits;
      displacement_sum += served_rank >= rank
                              ? static_cast<double>(served_rank - rank)
                              : static_cast<double>(rank - served_rank);
    }
    recall = static_cast<double>(hits) / static_cast<double>(exact.size());
    displacement = displacement_sum / static_cast<double>(exact.size());
    coarse_misses_ += exact.size() - hits;
  }
  recall_window_.add(recall);
  displacement_window_.add(displacement);
  const double estimate = recall_window_.mean();
  recall_gauge_.set(estimate);
  const bool low = recall_window_.size() >= options_.min_samples &&
                   estimate < options_.recall_alarm_below;
  if (low && !alarm_active_) {
    ++alarms_;
    alarm_counter_.inc();
  }
  alarm_active_ = low;
}

HealthMonitor::HealthMonitor(MonitorOptions options, ScrubFn scrub,
                             const RecallCanary* canary, Labels labels)
    : options_(options), scrub_(std::move(scrub)), canary_(canary),
      labels_(std::move(labels)) {
  Labels alarm_labels = labels_;
  alarm_labels.emplace_back("kind", "drift");
  drift_alarm_counter_ = registry().counter("mcam_health_alarms_total", alarm_labels);
  if (options_.scrub_period.count() > 0 && scrub_) {
    worker_ = std::thread([this] { worker_loop(); });
  }
}

HealthMonitor::~HealthMonitor() { stop(); }

std::vector<BankHealth> HealthMonitor::scrub_now() {
  if (!scrub_) return {};
  // The sweep runs outside mutex_ - the ScrubFn takes the owner's index
  // lock, and nesting it under ours would invite a cycle.
  std::vector<BankHealth> banks = scrub_();
  bool over = false;
  for (const BankHealth& bank : banks) {
    Labels bank_labels = labels_;
    bank_labels.emplace_back("bank", bank.bank);
    // Resolving per scrub (not cached) is fine: scrubs are seconds apart,
    // and lazy resolution tracks banks appearing as the index grows.
    registry().gauge("mcam_health_bank_drift_score", bank_labels).set(bank.drift_score);
    over = over || bank.drift_score > options_.drift_alarm_above;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++scrubs_;
  if (over && !drift_alarm_active_) {
    ++drift_alarms_;
    drift_alarm_counter_.inc();
  }
  drift_alarm_active_ = over;
  last_banks_ = banks;
  return banks;
}

void HealthMonitor::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

HealthReport HealthMonitor::report() const {
  HealthReport report;
  // Canary first, unnested: both locks are leaves and never held together.
  if (canary_ != nullptr) report.canary = canary_->report();
  std::lock_guard<std::mutex> lock(mutex_);
  report.banks = last_banks_;
  report.scrubs = scrubs_;
  report.drift_alarms = drift_alarms_;
  report.drift_alarm_active = drift_alarm_active_;
  return report;
}

void HealthMonitor::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    cv_.wait_for(lock, options_.scrub_period, [this] { return stopping_; });
    if (stopping_) return;
    lock.unlock();
    try {
      (void)scrub_now();
    } catch (const std::exception&) {
      // A scrub racing shutdown (owner lock gone) must not kill the
      // monitor; the next cycle retries.
    }
    lock.lock();
  }
}

}  // namespace mcam::obs::health
