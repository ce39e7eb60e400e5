// 64-bit FNV-1a over raw bytes, for golden tests that pin the IEEE-754 bit
// patterns of computed results rather than their values.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mcam::testing_util {

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ULL;
    }
  }
  void f64(double v) { bytes(&v, sizeof v); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

}  // namespace mcam::testing_util
