// Host-speed normalisation of the end-to-end benchmark.
//
// On a shared host the same work can take up to 1.6x as long from one
// second to the next, on each vCPU independently. The benchmark therefore
// pins itself and every thread it starts to one CPU, and between blocks of
// measured work it runs slices of a fixed reference kernel on that CPU.
// Every host time is multiplied by (nominal / actual pass time) to the
// power kSpeedExponent, the actual pass time being the mean over the
// slices on either side of it. That turns it into about the time the work
// would take on a host where a reference pass takes kNominalPassUs, and
// cancels most of what the host's speed did to it.
//
// The reference kernel is compiled in its own target with the benchmark's
// own flags, so that no change to the library's build moves it.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace e2e {

/// The reference pass time that normalised host times are scaled to. It is
/// about what one pass took on the sizing host (README.md, "Sizing").
inline constexpr double kNominalPassUs = 12.0;
/// How much more than the reference pass the serving ops speed up when the
/// host does: in its fast stretches a pass took 7.5-8 us against 11-12.5
/// us, and ops that the plain ratio left 4-7% short came out even to
/// within 1-2% with this exponent (README.md, "Host-speed normalisation").
inline constexpr double kSpeedExponent = 1.1;

/// Pins the calling thread, and every thread it starts afterwards, to the
/// CPU it runs on now. Returns that CPU, or -1 when pinning failed.
int pin_to_current_cpu();

/// Reference slices and the normalisation they give. Samples are filed by
/// epoch: a sample taken while epoch() == e lies between slice e-1 and
/// slice e.
class HostClock {
 public:
  HostClock();

  /// Runs one reference slice: passes of the kernel for `seconds`, or
  /// about 1 ms if that is longer.
  void slice(double seconds = 0.0);
  /// Runs a slice when the last one is at least the block length ago: call
  /// it between measured steps.
  void tick();

  [[nodiscard]] std::uint32_t epoch() const {
    return static_cast<std::uint32_t>(pass_s_.size());
  }
  /// Nominal over actual pass time to the power kSpeedExponent, for a
  /// sample of epoch `e`: the actual time is the mean of the pass times of
  /// the slices on either side of it.
  [[nodiscard]] double scale(std::uint32_t e) const;
  /// Median reference pass time over every slice, in microseconds.
  [[nodiscard]] double pass_p50_us() const;

 private:
  std::vector<double> overdrive_v_;  ///< The reference pass's inputs.
  std::vector<double> pass_s_;  ///< Median pass time of each slice.
  std::chrono::steady_clock::time_point last_;
};

}  // namespace e2e
