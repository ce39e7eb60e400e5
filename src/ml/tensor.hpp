// Minimal dense tensor for the embedding-network substrate.
//
// Deliberately small: row-major float storage plus shape bookkeeping is all
// the single-sample training loops need. No broadcasting, no views.
#pragma once

#include "util/rng.hpp"

#include <cstddef>
#include <span>
#include <vector>

namespace mcam::ml {

/// Row-major dense float tensor.
class Tensor {
 public:
  Tensor() = default;

  /// Allocates zeros with the given shape.
  explicit Tensor(std::vector<std::size_t> shape);

  /// Zero tensor of `shape`.
  [[nodiscard]] static Tensor zeros(std::vector<std::size_t> shape);

  /// Gaussian init with standard deviation `scale` (He/Xavier chosen by
  /// the caller).
  [[nodiscard]] static Tensor randn(std::vector<std::size_t> shape, Rng& rng, double scale);

  /// Total element count.
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  /// Shape vector.
  [[nodiscard]] const std::vector<std::size_t>& shape() const noexcept { return shape_; }

  /// Flat element access.
  [[nodiscard]] float& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] float operator[](std::size_t i) const { return data_[i]; }

  /// 2-D access (requires rank 2; throws std::logic_error otherwise).
  /// Inline: the signature-model fits call it in their innermost loops.
  [[nodiscard]] float& at(std::size_t row, std::size_t col) {
    if (shape_.size() != 2) throw_not_matrix();
    return data_[row * shape_[1] + col];
  }
  [[nodiscard]] float at(std::size_t row, std::size_t col) const {
    if (shape_.size() != 2) throw_not_matrix();
    return data_[row * shape_[1] + col];
  }

  /// Raw storage.
  [[nodiscard]] std::span<float> data() noexcept { return data_; }
  [[nodiscard]] std::span<const float> data() const noexcept { return data_; }
  /// Mutable storage vector (optimizers update in place).
  [[nodiscard]] std::vector<float>& storage() noexcept { return data_; }

  /// Sets every element to zero.
  void fill_zero() noexcept;

 private:
  /// Out of line and cold, so the inlined accessors stay small.
  [[noreturn, gnu::cold]] static void throw_not_matrix();

  std::vector<std::size_t> shape_;
  std::vector<float> data_;
};

}  // namespace mcam::ml
