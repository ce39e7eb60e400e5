#include "loadgen.hpp"

#include <exception>
#include <iostream>

namespace e2e {

LoadGenerator::LoadGenerator(Workload& workload, HostClock& clock, Samples& samples,
                             std::size_t head)
    : workload_(workload), clock_(clock), samples_(samples), head_(head) {
  for (const OpClass& kind : workload_.mix()) class_names_.push_back("op." + kind.name);
}

void LoadGenerator::run(mcam::Rng& rng, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const Op op = workload_.draw_op(rng, stats_.sent);
    ++stats_.sent;
    bool ok = true;
    double seconds = 0.0;
    if (op.kind == OpKind::kRead) {
      const Clock::time_point start = Clock::now();
      const Reply reply = workload_.submit(op).take();
      seconds = seconds_since(start);
      ok = reply.status == mcam::serve::RequestStatus::kOk;
      if (ok) {
        workload_.check(reads_, op, reply, writes_);
        samples_.add_time("load.read", seconds);
        if (stats_.sent <= head_) samples_.add_time("load.head", seconds);
      }
      ++reads_;
    } else {
      const Clock::time_point start = Clock::now();
      try {
        workload_.write(op);
      } catch (const std::exception& error) {
        std::cerr << "write failed: " << error.what() << "\n";
        ok = false;
      }
      seconds = seconds_since(start);
      ++writes_;
      if (ok) samples_.add_time("load.write", seconds);
    }
    if (ok) {
      ++stats_.ok;
      samples_.add_time(class_names_.at(workload_.op_class(op)), seconds);
    } else {
      ++stats_.failed;
    }
    clock_.tick();
  }
}

}  // namespace e2e
