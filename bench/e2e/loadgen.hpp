// The load generator: one thread that sends a workload's ops to its
// serving front one at a time. A read is submitted and waited for before
// the next op goes out; a write is a synchronous call. Each op is timed
// from submit to reply, and a reference slice runs between blocks of ops
// (reference.hpp) so that every time can be normalised.
#pragma once

#include "reference.hpp"
#include "samples.hpp"
#include "workload.hpp"

#include <cstddef>
#include <string>
#include <vector>

namespace e2e {

/// Ops the load generator sent, and how they ended.
struct LoadStats {
  std::size_t sent = 0;    ///< Ops sent, reads and writes.
  std::size_t ok = 0;      ///< Ops that completed OK.
  std::size_t failed = 0;  ///< Reads not answered OK, writes that threw.
};

/// Files each op's time under `op.<class>` and `load.read` or `load.write`,
/// and the reads among the first `head` ops also under `load.head` (the
/// ops the traced replay repeats).
class LoadGenerator {
 public:
  LoadGenerator(Workload& workload, HostClock& clock, Samples& samples, std::size_t head);

  /// Sends the next `count` ops of the mix `rng` draws.
  void run(mcam::Rng& rng, std::size_t count);

  [[nodiscard]] const LoadStats& stats() const { return stats_; }

 private:
  Workload& workload_;
  HostClock& clock_;
  Samples& samples_;
  std::size_t head_;
  std::vector<std::string> class_names_;  ///< `op.<class>`, by Workload::op_class.
  LoadStats stats_;
  std::size_t reads_ = 0;   ///< Reads sent so far (the gates' sequence number).
  std::size_t writes_ = 0;  ///< Writes sent so far.
};

}  // namespace e2e
