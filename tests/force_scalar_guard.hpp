// Scoped pin of the kernel dispatch (rerank and CAM sweeps) for tests that
// compare a SIMD backend against the scalar reference.
#pragma once

#include "distance/kernels/kernels.hpp"

namespace mcam::testing_util {

/// Restores the force-scalar dispatch state on scope exit.
class ForceScalarGuard {
 public:
  ForceScalarGuard() : saved_(distance::kernels::force_scalar()) {}
  ~ForceScalarGuard() { distance::kernels::set_force_scalar(saved_); }
  ForceScalarGuard(const ForceScalarGuard&) = delete;
  ForceScalarGuard& operator=(const ForceScalarGuard&) = delete;

 private:
  bool saved_;
};

}  // namespace mcam::testing_util
