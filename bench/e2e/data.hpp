// Seeded inputs of the end-to-end benchmark: the clustered low-rank
// embedding generator of bench_recall_qps, a Zipf sampler for skewed
// traffic, and exact Euclidean ground truth computed here, independently
// of the library under test.
#pragma once

#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

namespace e2e {

inline constexpr std::size_t kFeatures = 48;
inline constexpr std::size_t kIntrinsicDim = 4;
inline constexpr std::size_t kClusters = 32;
inline constexpr double kNoiseSigma = 1.0;

/// Seed of the embedding space itself. It is fixed so that every --seed
/// samples rows and queries from the same space: the simulator's cost per
/// cell depends on the data, and a space redrawn per seed would spread the
/// host-time metrics by more than their bounds.
inline constexpr std::uint64_t kSpaceSeed = 20210831;

/// Cluster centers drawn in a kIntrinsicDim-dimensional latent space and
/// embedded into kFeatures dimensions; samples add isotropic noise. The
/// shape production embedding tables have, and the one the coarse
/// signature models are built to exploit.
class Embeddings {
 public:
  Embeddings() : centers_(kClusters, std::vector<float>(kFeatures)) {
    mcam::Rng rng{kSpaceSeed};
    std::vector<std::vector<float>> basis(kIntrinsicDim, std::vector<float>(kFeatures));
    for (auto& b : basis) {
      for (auto& v : b) v = static_cast<float>(rng.normal(0.0, 1.0));
    }
    for (auto& c : centers_) {
      for (const auto& b : basis) {
        const auto weight = static_cast<float>(rng.normal(0.0, 1.0));
        for (std::size_t i = 0; i < kFeatures; ++i) c[i] += weight * b[i];
      }
    }
  }

  /// One vector near a uniformly drawn cluster center; returns it with
  /// the cluster, which is also the row's label.
  [[nodiscard]] std::pair<std::vector<float>, int> sample(mcam::Rng& rng) const {
    const std::size_t cluster = rng.index(kClusters);
    std::vector<float> v(kFeatures);
    for (std::size_t i = 0; i < kFeatures; ++i) {
      v[i] = centers_[cluster][i] + static_cast<float>(rng.normal(0.0, kNoiseSigma));
    }
    return {std::move(v), static_cast<int>(cluster)};
  }

 private:
  std::vector<std::vector<float>> centers_;
};

/// Labeled vectors; labels are the generating clusters.
struct Points {
  std::vector<std::vector<float>> rows;
  std::vector<int> labels;

  void add(std::pair<std::vector<float>, int> point) {
    rows.push_back(std::move(point.first));
    labels.push_back(point.second);
  }
};

[[nodiscard]] inline Points sample_points(const Embeddings& data, std::size_t n,
                                          mcam::Rng& rng) {
  Points points;
  for (std::size_t i = 0; i < n; ++i) points.add(data.sample(rng));
  return points;
}

/// Zipf(s) over {0, ..., n-1}: rank r drawn with weight 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  [[nodiscard]] std::size_t operator()(mcam::Rng& rng) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    return std::min(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Ids of the k rows nearest to `query` in Euclidean distance, among the
/// rows `eligible` admits (ties to the lower id).
[[nodiscard]] inline std::vector<std::size_t> exact_knn(
    const std::vector<std::vector<float>>& rows, std::span<const float> query, std::size_t k,
    const std::function<bool(std::size_t)>& eligible) {
  std::vector<std::pair<double, std::size_t>> scored;
  scored.reserve(rows.size());
  for (std::size_t id = 0; id < rows.size(); ++id) {
    if (!eligible(id)) continue;
    double d2 = 0.0;
    for (std::size_t i = 0; i < query.size(); ++i) {
      const double diff = static_cast<double>(rows[id][i]) - static_cast<double>(query[i]);
      d2 += diff * diff;
    }
    scored.emplace_back(d2, id);
  }
  const std::size_t kk = std::min(k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + static_cast<std::ptrdiff_t>(kk),
                    scored.end());
  std::vector<std::size_t> ids;
  ids.reserve(kk);
  for (std::size_t i = 0; i < kk; ++i) ids.push_back(scored[i].second);
  return ids;
}

}  // namespace e2e
