#include "ml/tensor.hpp"

#include <algorithm>
#include <stdexcept>

namespace mcam::ml {

namespace {
std::size_t shape_size(const std::vector<std::size_t>& shape) {
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return shape.empty() ? 0 : n;
}
}  // namespace

Tensor::Tensor(std::vector<std::size_t> shape)
    : shape_(std::move(shape)), data_(shape_size(shape_), 0.0f) {}

Tensor Tensor::zeros(std::vector<std::size_t> shape) { return Tensor{std::move(shape)}; }

Tensor Tensor::randn(std::vector<std::size_t> shape, Rng& rng, double scale) {
  Tensor t{std::move(shape)};
  for (float& v : t.data_) v = static_cast<float>(rng.normal(0.0, scale));
  return t;
}

void Tensor::throw_not_matrix() {
  throw std::logic_error{"Tensor::at: rank-2 access on non-matrix"};
}

void Tensor::fill_zero() noexcept { std::fill(data_.begin(), data_.end(), 0.0f); }

}  // namespace mcam::ml
