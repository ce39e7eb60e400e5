#include "reference.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>

namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

/// One pass is a sweep of a FeFET channel-conductance model over
/// kCells gate overdrives: an exp and two divides per cell, the shape of
/// the simulator's own cell evaluation. Of the kernels tried (table
/// gathers from 64 KiB to 8 MiB, a memory stream, a dependent FMA chain, a
/// float distance scan and mixes of them), this one's speed tracked every
/// workload's most closely as the host's speed changed.
constexpr std::size_t kCells = 1024;
constexpr double kSlopeV = 0.08;
constexpr double kG0 = 1e-9;
constexpr double kGLeak = 1e-12;
constexpr double kROn = 1e4;
constexpr double kSliceS = 1e-3;  ///< The shortest slice.
constexpr double kBlockS = 5e-3;  ///< tick(): a slice at most this often.

double seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

volatile double sink = 0.0;

}  // namespace

int pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

HostClock::HostClock() : overdrive_v_(kCells), last_(Clock::now()) {
  std::uint32_t x = 1;
  for (double& v : overdrive_v_) {
    x = x * 1664525u + 1013904223u;
    v = -0.6 + 1.2 * static_cast<double>(x >> 8) / static_cast<double>(1u << 24);
  }
}

void HostClock::slice(double length_s) {
  length_s = std::max(length_s, kSliceS);
  std::vector<double> passes;
  const Clock::time_point start = Clock::now();
  Clock::time_point end = start;
  while (seconds(start, end) < length_s) {
    const Clock::time_point begin = end;
    double sum = 0.0;
    for (const double v : overdrive_v_) {
      const double g = kG0 * std::exp(std::min(v / kSlopeV, 60.0));
      sum += kGLeak + 1.0 / (1.0 / g + kROn);
    }
    sink = sum;
    end = Clock::now();
    passes.push_back(seconds(begin, end));
  }
  std::nth_element(passes.begin(), passes.begin() + static_cast<std::ptrdiff_t>(passes.size() / 2),
                   passes.end());
  pass_s_.push_back(passes[passes.size() / 2]);
  last_ = Clock::now();
}

void HostClock::tick() {
  if (seconds(last_, Clock::now()) >= kBlockS) slice();
}

double HostClock::scale(std::uint32_t e) const {
  if (pass_s_.empty()) return 1.0;
  const std::size_t last = pass_s_.size() - 1;
  const double before = pass_s_[std::min<std::size_t>(e == 0 ? 0 : e - 1, last)];
  const double after = pass_s_[std::min<std::size_t>(e, last)];
  return std::pow(kNominalPassUs * 1e-6 / (0.5 * (before + after)), kSpeedExponent);
}

double HostClock::pass_p50_us() const {
  if (pass_s_.empty()) return 0.0;
  std::vector<double> sorted = pass_s_;
  std::sort(sorted.begin(), sorted.end());
  return sorted[sorted.size() / 2] * 1e6;
}

}  // namespace e2e
