// Sample containers of the end-to-end benchmark: named host times, read
// back normalised to the nominal host speed (reference.hpp), and named
// counts, with the percentile helpers every metric reports through.
#pragma once

#include "reference.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/// Nearest-rank percentile (a value that actually occurred), `p` in
/// [0, 100]; 0 for an empty sample.
[[nodiscard]] inline double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(xs.size())));
  return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

/// Midpoint median (the mean of the two middle values for an even count).
[[nodiscard]] inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

/// Seconds elapsed since `start`.
[[nodiscard]] inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Named samples: host times, each filed under the HostClock epoch it was
/// taken in, and counts or ratios. A name holds one kind or the other.
class Samples {
 public:
  explicit Samples(const HostClock& clock) : clock_(&clock) {}

  /// A count or a ratio, kept as it is.
  void add(const std::string& name, double value) { values_[name].push_back(value); }
  /// A host time in seconds, read back normalised.
  void add_time(const std::string& name, double seconds) {
    times_[name].push_back(Time{seconds, clock_->epoch()});
  }

  /// Every sample of `name`: normalised seconds for a time.
  [[nodiscard]] std::vector<double> get(const std::string& name) const {
    if (const auto it = times_.find(name); it != times_.end()) {
      std::vector<double> out;
      out.reserve(it->second.size());
      for (const Time& t : it->second) out.push_back(t.seconds * clock_->scale(t.epoch));
      return out;
    }
    const auto it = values_.find(name);
    return it == values_.end() ? std::vector<double>{} : it->second;
  }

  [[nodiscard]] double p50(const std::string& name) const { return median(get(name)); }
  [[nodiscard]] double pct(const std::string& name, double p) const {
    return percentile(get(name), p);
  }
  [[nodiscard]] double mean(const std::string& name) const {
    const std::vector<double> xs = get(name);
    double sum = 0.0;
    for (double x : xs) sum += x;
    return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
  }
  [[nodiscard]] std::size_t count(const std::string& name) const {
    if (const auto it = times_.find(name); it != times_.end()) return it->second.size();
    const auto it = values_.find(name);
    return it == values_.end() ? 0 : it->second.size();
  }

 private:
  struct Time {
    double seconds;
    std::uint32_t epoch;
  };

  const HostClock* clock_;
  std::map<std::string, std::vector<Time>> times_;
  std::map<std::string, std::vector<double>> values_;
};

}  // namespace e2e
