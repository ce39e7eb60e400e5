// Signature-model subsystem invariants (sig/model.hpp,
// sig/multiprobe.hpp): the registry resolves random/trained/itq and
// rejects unknown names with the known list; the random model's planes
// and signatures hold their pinned bits (the TCAM+LSH baseline and
// v2-snapshot compat contract) and behave as sign-of-random-projection
// LSH (Hamming tracks angle, more bits track cosine better); trained
// thresholds balance every bit on the calibration data; itq training is
// deterministic, rotation-orthogonal, and a better quantizer than raw
// sign bits; the fits and project() match per-output scalar reference
// loops bit for bit, on the dispatched matrix products and pinned to the
// baseline loop, and the AVX2 products equal the baseline loop's bits on
// every shape and on signed zeros, denormals, infinities and NaN; ragged
// or non-finite calibration rows and non-finite installed state are
// rejected; install_state round-trips every model bit-exactly; and the
// multi-probe generator enumerates flip sets in increasing margin order
// with the base signature first.
#include "sig/model.hpp"
#include "sig/multiprobe.hpp"
#include "sig/products.hpp"

#include "distance/kernels/kernels.hpp"
#include "distance/metrics.hpp"
#include "fnv1a.hpp"
#include "force_scalar_guard.hpp"
#include "ml/tensor.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numbers>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace mcam::sig {
namespace {

std::vector<std::vector<float>> make_rows(std::size_t n, std::size_t dim,
                                          std::uint64_t seed) {
  Rng rng{seed};
  std::vector<std::vector<float>> rows(n, std::vector<float>(dim));
  for (auto& row : rows) {
    const double shift = rng.normal(0.0, 2.0);
    for (auto& v : row) v = static_cast<float>(shift + rng.normal(0.0, 1.0));
  }
  return rows;
}

/// IEEE bit patterns, so a comparison tells -0.0 from +0.0 and matches NaNs.
std::vector<std::uint32_t> float_bits(const std::vector<float>& values) {
  std::vector<std::uint32_t> bits(values.size());
  std::memcpy(bits.data(), values.data(), values.size() * sizeof(float));
  return bits;
}

// The fits as they were written before they ran across outputs: every
// output of a matrix product is one scalar sum down a column or along a
// row, read through Tensor::at. The library must match them bit for bit.
namespace scalar_reference {

constexpr std::size_t kPowerIterations = 64;
constexpr std::size_t kItqIterations = 24;
constexpr std::size_t kJacobiSweeps = 30;

struct Fit {
  std::vector<float> planes;
  std::vector<float> thresholds;
};

std::vector<float> feature_mean(std::span<const std::vector<float>> rows) {
  std::vector<float> mean(rows.front().size(), 0.0f);
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < mean.size(); ++i) mean[i] += row[i];
  }
  const float inv_n = 1.0f / static_cast<float>(rows.size());
  for (float& m : mean) m *= inv_n;
  return mean;
}

ml::Tensor covariance(std::span<const std::vector<float>> rows,
                      std::span<const float> mean) {
  const std::size_t f = mean.size();
  ml::Tensor cov({f, f});
  for (const auto& row : rows) {
    for (std::size_t a = 0; a < f; ++a) {
      const float da = row[a] - mean[a];
      for (std::size_t b = a; b < f; ++b) {
        cov.at(a, b) += da * (row[b] - mean[b]);
      }
    }
  }
  const float inv_n = 1.0f / static_cast<float>(rows.size());
  for (std::size_t a = 0; a < f; ++a) {
    for (std::size_t b = a; b < f; ++b) {
      cov.at(a, b) *= inv_n;
      cov.at(b, a) = cov.at(a, b);
    }
  }
  return cov;
}

float vector_norm(std::span<const float> v) {
  float sum = 0.0f;
  for (float x : v) sum += x * x;
  return std::sqrt(sum);
}

void principal_directions(ml::Tensor cov, std::size_t count, Rng& rng,
                          std::vector<std::vector<float>>& directions,
                          std::vector<float>& eigenvalues) {
  const std::size_t f = cov.shape().front();
  directions.clear();
  eigenvalues.clear();
  for (std::size_t j = 0; j < count; ++j) {
    std::vector<float> v(f);
    for (float& x : v) x = static_cast<float>(rng.normal());
    std::vector<float> w(f);
    for (std::size_t iter = 0; iter < kPowerIterations; ++iter) {
      for (const auto& prev : directions) {
        float proj = 0.0f;
        for (std::size_t i = 0; i < f; ++i) proj += prev[i] * v[i];
        for (std::size_t i = 0; i < f; ++i) v[i] -= proj * prev[i];
      }
      for (std::size_t a = 0; a < f; ++a) {
        float sum = 0.0f;
        for (std::size_t b = 0; b < f; ++b) sum += cov.at(a, b) * v[b];
        w[a] = sum;
      }
      const float norm = vector_norm(w);
      if (norm < 1e-20f) break;
      for (std::size_t i = 0; i < f; ++i) v[i] = w[i] / norm;
    }
    const float norm = vector_norm(v);
    if (norm < 1e-20f) {
      std::fill(v.begin(), v.end(), 0.0f);
      v[j % f] = 1.0f;
    } else {
      for (float& x : v) x /= norm;
    }
    float lambda = 0.0f;
    for (std::size_t a = 0; a < f; ++a) {
      float sum = 0.0f;
      for (std::size_t b = 0; b < f; ++b) sum += cov.at(a, b) * v[b];
      lambda += v[a] * sum;
    }
    lambda = std::max(lambda, 0.0f);
    for (std::size_t a = 0; a < f; ++a) {
      for (std::size_t b = 0; b < f; ++b) {
        cov.at(a, b) -= lambda * v[a] * v[b];
      }
    }
    directions.push_back(std::move(v));
    eigenvalues.push_back(lambda);
  }
}

void jacobi_eigen(ml::Tensor& sym, ml::Tensor& rotation) {
  const std::size_t m = sym.shape().front();
  rotation = ml::Tensor({m, m});
  for (std::size_t i = 0; i < m; ++i) rotation.at(i, i) = 1.0f;
  for (std::size_t sweep = 0; sweep < kJacobiSweeps; ++sweep) {
    float off = 0.0f;
    for (std::size_t p = 0; p < m; ++p) {
      for (std::size_t q = p + 1; q < m; ++q) off += std::abs(sym.at(p, q));
    }
    if (off < 1e-10f) return;
    for (std::size_t p = 0; p < m; ++p) {
      for (std::size_t q = p + 1; q < m; ++q) {
        const float apq = sym.at(p, q);
        if (std::abs(apq) < 1e-12f) continue;
        const float app = sym.at(p, p);
        const float aqq = sym.at(q, q);
        const float theta = 0.5f * std::atan2(2.0f * apq, app - aqq);
        const float c = std::cos(theta);
        const float s = std::sin(theta);
        for (std::size_t i = 0; i < m; ++i) {
          const float aip = sym.at(i, p);
          const float aiq = sym.at(i, q);
          sym.at(i, p) = c * aip + s * aiq;
          sym.at(i, q) = -s * aip + c * aiq;
        }
        for (std::size_t i = 0; i < m; ++i) {
          const float api = sym.at(p, i);
          const float aqi = sym.at(q, i);
          sym.at(p, i) = c * api + s * aqi;
          sym.at(q, i) = -s * api + c * aqi;
        }
        for (std::size_t i = 0; i < m; ++i) {
          const float rip = rotation.at(i, p);
          const float riq = rotation.at(i, q);
          rotation.at(i, p) = c * rip + s * riq;
          rotation.at(i, q) = -s * rip + c * riq;
        }
      }
    }
  }
}

ml::Tensor polar_orthogonal(const ml::Tensor& m_mat) {
  const std::size_t m = m_mat.shape().front();
  ml::Tensor sym({m, m});
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = a; b < m; ++b) {
      float sum = 0.0f;
      for (std::size_t i = 0; i < m; ++i) sum += m_mat.at(i, a) * m_mat.at(i, b);
      sym.at(a, b) = sum;
      sym.at(b, a) = sum;
    }
  }
  ml::Tensor eigvecs;
  jacobi_eigen(sym, eigvecs);
  float max_eig = 0.0f;
  for (std::size_t i = 0; i < m; ++i) max_eig = std::max(max_eig, sym.at(i, i));
  ml::Tensor result({m, m});
  if (max_eig <= 0.0f) {
    for (std::size_t i = 0; i < m; ++i) result.at(i, i) = 1.0f;
    return result;
  }
  std::vector<float> inv_sqrt(m);
  for (std::size_t i = 0; i < m; ++i) {
    inv_sqrt[i] = 1.0f / std::sqrt(std::max(sym.at(i, i), 1e-12f * max_eig));
  }
  ml::Tensor scaled({m, m});
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = 0; b < m; ++b) {
      float sum = 0.0f;
      for (std::size_t k = 0; k < m; ++k) {
        sum += eigvecs.at(a, k) * inv_sqrt[k] * eigvecs.at(b, k);
      }
      scaled.at(a, b) = sum;
    }
  }
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = 0; b < m; ++b) {
      float sum = 0.0f;
      for (std::size_t k = 0; k < m; ++k) sum += m_mat.at(a, k) * scaled.at(k, b);
      result.at(a, b) = sum;
    }
  }
  return result;
}

ml::Tensor random_rotation(std::size_t m, Rng& rng) {
  ml::Tensor rot({m, m});
  for (std::size_t col = 0; col < m; ++col) {
    std::vector<float> v(m);
    for (float& x : v) x = static_cast<float>(rng.normal());
    for (std::size_t prev = 0; prev < col; ++prev) {
      float proj = 0.0f;
      for (std::size_t i = 0; i < m; ++i) proj += rot.at(i, prev) * v[i];
      for (std::size_t i = 0; i < m; ++i) v[i] -= proj * rot.at(i, prev);
    }
    const float norm = vector_norm(v);
    if (norm < 1e-12f) {
      std::fill(v.begin(), v.end(), 0.0f);
      v[col] = 1.0f;
    } else {
      for (float& x : v) x /= norm;
    }
    for (std::size_t i = 0; i < m; ++i) rot.at(i, col) = v[i];
  }
  return rot;
}

Fit trained(std::span<const std::vector<float>> rows, std::size_t bits,
            std::uint64_t seed) {
  const std::size_t f = rows.front().size();
  const std::vector<float> mean = feature_mean(rows);
  Rng rng{seed};
  const std::size_t num_dirs = std::min(bits, f);
  std::vector<std::vector<float>> directions;
  std::vector<float> eigenvalues;
  principal_directions(covariance(rows, mean), num_dirs, rng, directions, eigenvalues);
  std::vector<float> shares(num_dirs);
  float total_share = 0.0f;
  for (std::size_t j = 0; j < num_dirs; ++j) {
    shares[j] = std::sqrt(std::max(eigenvalues[j], 0.0f));
    total_share += shares[j];
  }
  std::vector<std::size_t> counts(num_dirs, 0);
  if (total_share <= 0.0f) {
    for (std::size_t b = 0; b < bits; ++b) ++counts[b % num_dirs];
  } else {
    std::vector<float> fractions(num_dirs);
    std::size_t assigned = 0;
    for (std::size_t j = 0; j < num_dirs; ++j) {
      const float exact = static_cast<float>(bits) * shares[j] / total_share;
      counts[j] = static_cast<std::size_t>(exact);
      fractions[j] = exact - static_cast<float>(counts[j]);
      assigned += counts[j];
    }
    std::vector<std::size_t> order(num_dirs);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return fractions[a] > fractions[b];
    });
    for (std::size_t r = 0; assigned < bits; ++r) ++counts[order[r % num_dirs]], ++assigned;
  }
  Fit fit;
  for (std::size_t j = 0; j < num_dirs; ++j) {
    if (counts[j] == 0) continue;
    std::vector<float> projections;
    for (const auto& row : rows) {
      float p = 0.0f;
      for (std::size_t i = 0; i < f; ++i) p += directions[j][i] * row[i];
      projections.push_back(p);
    }
    std::sort(projections.begin(), projections.end());
    for (std::size_t t = 1; t <= counts[j]; ++t) {
      const std::size_t idx =
          std::min(t * projections.size() / (counts[j] + 1), projections.size() - 1);
      fit.planes.insert(fit.planes.end(), directions[j].begin(), directions[j].end());
      fit.thresholds.push_back(projections[idx]);
    }
  }
  return fit;
}

Fit itq(std::span<const std::vector<float>> rows, std::size_t bits, std::uint64_t seed) {
  const std::size_t n = rows.size();
  const std::size_t f = rows.front().size();
  const std::vector<float> mean = feature_mean(rows);
  Rng rng{seed};
  const std::size_t num_dirs = std::min(bits, f);
  std::vector<std::vector<float>> directions;
  std::vector<float> eigenvalues;
  principal_directions(covariance(rows, mean), num_dirs, rng, directions, eigenvalues);
  ml::Tensor v_mat({n, bits});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t b = 0; b < bits; ++b) {
      const std::vector<float>& dir = directions[b % num_dirs];
      float p = 0.0f;
      for (std::size_t c = 0; c < f; ++c) p += dir[c] * (rows[i][c] - mean[c]);
      v_mat.at(i, b) = p;
    }
  }
  ml::Tensor rotation = random_rotation(bits, rng);
  std::vector<float> rotated(bits);
  for (std::size_t iter = 0; iter < kItqIterations; ++iter) {
    ml::Tensor m_mat({bits, bits});
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t b = 0; b < bits; ++b) {
        float sum = 0.0f;
        for (std::size_t j = 0; j < bits; ++j) sum += v_mat.at(i, j) * rotation.at(j, b);
        rotated[b] = sum >= 0.0f ? 1.0f : -1.0f;
      }
      for (std::size_t j = 0; j < bits; ++j) {
        const float vij = v_mat.at(i, j);
        for (std::size_t b = 0; b < bits; ++b) m_mat.at(j, b) += vij * rotated[b];
      }
    }
    rotation = polar_orthogonal(m_mat);
  }
  Fit fit{std::vector<float>(bits * f, 0.0f), std::vector<float>(bits, 0.0f)};
  for (std::size_t b = 0; b < bits; ++b) {
    float* plane = &fit.planes[b * f];
    for (std::size_t j = 0; j < bits; ++j) {
      const float weight = rotation.at(j, b);
      const std::vector<float>& dir = directions[j % num_dirs];
      for (std::size_t c = 0; c < f; ++c) plane[c] += weight * dir[c];
    }
    float t = 0.0f;
    for (std::size_t c = 0; c < f; ++c) t += plane[c] * mean[c];
    fit.thresholds[b] = t;
  }
  return fit;
}

/// The per-bit projection loop: one dot product per bit, over its plane.
std::vector<float> project(const SignatureModel& model, std::span<const float> features) {
  const std::size_t f = model.num_features();
  std::vector<float> margins(model.num_bits());
  for (std::size_t b = 0; b < model.num_bits(); ++b) {
    const float* plane = &model.planes()[b * f];
    float projection = 0.0f;
    for (std::size_t i = 0; i < f; ++i) projection += plane[i] * features[i];
    margins[b] = projection - model.thresholds()[b];
  }
  return margins;
}

}  // namespace scalar_reference

TEST(SignatureRegistry, ResolvesBuiltinsAndRejectsUnknownNames) {
  auto& factory = SignatureModelFactory::instance();
  const std::vector<std::string> names = factory.registered_names();
  EXPECT_EQ(names, (std::vector<std::string>{"itq", "random", "trained"}));
  SignatureModelConfig config;
  config.num_bits = 8;
  for (const std::string& name : names) {
    EXPECT_TRUE(factory.contains(name));
    auto model = factory.create(name, config);
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->key(), name);
    EXPECT_EQ(model->num_bits(), 8u);
    EXPECT_FALSE(model->fitted());
  }
  EXPECT_FALSE(factory.contains("banana"));
  try {
    (void)factory.create("banana", config);
    FAIL() << "unknown model accepted";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("banana"), std::string::npos) << what;
    for (const std::string& name : names) {
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
  }
  // Zero-width signatures are a configuration error for every model.
  EXPECT_THROW((void)factory.create("random", SignatureModelConfig{}),
               std::invalid_argument);
}

TEST(SignatureModel, LifecycleContracts) {
  SignatureModelConfig config;
  config.num_bits = 16;
  auto model = SignatureModelFactory::instance().create("trained", config);
  const std::vector<float> query(6, 0.5f);
  EXPECT_THROW((void)model->encode_bits(query), std::logic_error);
  EXPECT_THROW((void)model->project(query), std::logic_error);
  const auto rows = make_rows(40, 6, 11);
  EXPECT_THROW(model->fit({}), std::invalid_argument);
  model->fit(rows);
  ASSERT_TRUE(model->fitted());
  EXPECT_EQ(model->num_features(), 6u);
  EXPECT_EQ(model->planes().size(), 16u * 6u);
  EXPECT_EQ(model->thresholds().size(), 16u);
  // Width mismatches fail loudly.
  EXPECT_THROW((void)model->encode_bits(std::vector<float>(5, 0.0f)), std::invalid_argument);
  // Signature bits are exactly the margins' sign pattern.
  const std::vector<std::uint8_t> sig = model->encode_bits(rows.front());
  const std::vector<float> margins = model->project(rows.front());
  ASSERT_EQ(margins.size(), 16u);
  ASSERT_EQ(sig.size(), 16u);
  for (std::size_t b = 0; b < margins.size(); ++b) {
    EXPECT_EQ(sig[b], margins[b] >= 0.0f ? 1 : 0) << "bit " << b;
  }
  // fit is fit-once; reset drops the state for a refit.
  const std::vector<float> planes = model->planes();
  model->fit(make_rows(40, 6, 99));
  EXPECT_EQ(model->planes(), planes);
  model->reset();
  EXPECT_FALSE(model->fitted());
  model->fit(make_rows(40, 6, 99));
  EXPECT_NE(model->planes(), planes);
}

TEST(SignatureModel, RandomGoldenPlanesAndSignatures) {
  // FNV-1a over the random model's planes and over its signatures of
  // seeded rows, recorded while the planes were still drawn by the retired
  // random-hyperplane encoder. The TCAM+LSH baseline (Figs. 6-7, the
  // LSH-bits ablation) and v2 snapshots rest on these bits. Shapes: Fig.
  // 7's 64 features x 64 bits, and x 512, the ablation's widest.
  const auto rows = make_rows(64, 64, 43);
  const struct Golden {
    std::size_t bits;
    std::uint64_t planes;
    std::uint64_t signatures;
  } goldens[] = {{64, 0x2bc50a03147224b1ULL, 0x9f05aba1d2e61374ULL},
                 {512, 0xe3c35bf922e938f6ULL, 0xe242b943146f0a28ULL}};
  for (const Golden& golden : goldens) {
    SignatureModelConfig config;
    config.num_bits = golden.bits;
    config.seed = 7;
    auto model = SignatureModelFactory::instance().create("random", config);
    model->fit(rows);
    EXPECT_EQ(model->thresholds(), std::vector<float>(golden.bits, 0.0f));
    testing_util::Fnv1a planes;
    planes.bytes(model->planes().data(), model->planes().size() * sizeof(float));
    EXPECT_EQ(planes.value(), golden.planes)
        << golden.bits << " bits: 0x" << std::hex << planes.value();
    testing_util::Fnv1a signatures;
    for (const auto& row : rows) {
      const std::vector<std::uint8_t> bits = model->encode_bits(row);
      signatures.bytes(bits.data(), bits.size());
    }
    EXPECT_EQ(signatures.value(), golden.signatures)
        << golden.bits << " bits: 0x" << std::hex << signatures.value();
  }
}

TEST(SignatureModel, TrainedThresholdsBalanceEveryBit) {
  // Variance-balanced quantile thresholds: every signature bit should
  // split the calibration rows into reasonably balanced halves (random
  // hyperplanes guarantee nothing of the sort on shifted data).
  SignatureModelConfig config;
  config.num_bits = 12;
  auto model = SignatureModelFactory::instance().create("trained", config);
  const auto rows = make_rows(200, 5, 17);
  model->fit(rows);
  for (std::size_t b = 0; b < 12; ++b) {
    std::size_t ones = 0;
    for (const auto& row : rows) ones += model->encode_bits(row)[b];
    // Loose bounds: a direction with q bits puts its extreme thresholds
    // at quantiles 1/(q+1) and q/(q+1), so no bit may be more lopsided
    // than the widest plausible allocation allows.
    EXPECT_GE(ones, 18u) << "bit " << b << " nearly constant";
    EXPECT_LE(ones, 182u) << "bit " << b << " nearly constant";
  }
}

TEST(SignatureModel, ItqIsDeterministicOrthogonalAndWiderThanFeatures) {
  SignatureModelConfig config;
  config.num_bits = 10;  // Wider than the 6-dim feature space.
  config.seed = 5;
  const auto rows = make_rows(150, 6, 19);
  auto first = SignatureModelFactory::instance().create("itq", config);
  auto second = SignatureModelFactory::instance().create("itq", config);
  first->fit(rows);
  second->fit(rows);
  // Bit-deterministic across fits with the same seed and rows.
  EXPECT_EQ(first->planes(), second->planes());
  EXPECT_EQ(first->thresholds(), second->thresholds());
  EXPECT_EQ(first->num_features(), 6u);
  EXPECT_EQ(first->planes().size(), 10u * 6u);
  // A different seed learns a different rotation.
  SignatureModelConfig other = config;
  other.seed = 6;
  auto reseeded = SignatureModelFactory::instance().create("itq", other);
  reseeded->fit(rows);
  EXPECT_NE(reseeded->planes(), first->planes());
  // The signature is not degenerate: bits differ across rows.
  std::set<std::string> distinct;
  for (const auto& row : rows) {
    const std::vector<std::uint8_t> bits = first->encode_bits(row);
    distinct.emplace(bits.begin(), bits.end());
  }
  EXPECT_GT(distinct.size(), 16u);
}

// The three bit-identity checks below run twice: on the dispatched matrix
// products (sig/products.hpp) and pinned to the baseline loop. The
// dispatched leg is skipped where the host has no backend beyond it.
class SignatureModelOnBackend : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    const bool scalar = std::string{GetParam()} == "scalar";
    if (!scalar && products::avx2_ops() == nullptr) {
      GTEST_SKIP() << "host has no AVX2 products backend";
    }
    distance::kernels::set_force_scalar(scalar);
  }

 private:
  testing_util::ForceScalarGuard guard_;
};

INSTANTIATE_TEST_SUITE_P(Products, SignatureModelOnBackend,
                         ::testing::Values("dispatched", "scalar"),
                         [](const ::testing::TestParamInfo<const char*>& leg) {
                           return std::string{leg.param};
                         });

TEST_P(SignatureModelOnBackend, GoldenFitBits) {
  // FNV-1a over the fitted planes and thresholds of the two trained
  // models: the ML substrate under the fits (Tensor access, loop order)
  // must not move a signature bit.
  SignatureModelConfig config;
  config.num_bits = 24;  // Wider than the features: itq cycles its PCA.
  config.seed = 7;
  const auto rows = make_rows(300, 12, 41);
  const std::vector<std::pair<const char*, std::uint64_t>> goldens{
      {"itq", 0x1edbbc315a52deaaULL}, {"trained", 0x7c20b481d5f87dabULL}};
  for (const auto& [key, golden] : goldens) {
    auto model = SignatureModelFactory::instance().create(key, config);
    model->fit(rows);
    testing_util::Fnv1a hash;
    hash.bytes(model->planes().data(), model->planes().size() * sizeof(float));
    hash.bytes(model->thresholds().data(), model->thresholds().size() * sizeof(float));
    EXPECT_EQ(hash.value(), golden) << key << " 0x" << std::hex << hash.value();
  }
}

TEST_P(SignatureModelOnBackend, FitMatchesScalarReference) {
  // The fits run across outputs; each output must still add the same
  // products in the same order as the scalar loops. One and two rows give
  // a zero and a rank-one covariance; bits above the feature count cycle
  // the PCA basis; 97 features leave a partial block of outputs.
  //
  // Cost bounds the grid: a 64-bit itq fit, and its reference, spends
  // 0.1-0.3 s in the 64 x 64 Jacobi sweeps of its 24 rotation updates,
  // and the sanitizer builds run this test 12x (ASan) to 55x (TSan)
  // slower. So the two seeds alternate across the grid, and 64-bit itq
  // runs at 33 rows with and without a cycled basis.
  std::size_t cell = 0;
  for (const std::size_t features : {1, 5, 12, 48, 97}) {
    for (const std::size_t num_rows : {1, 2, 33, 300}) {
      const auto rows = make_rows(num_rows, features, 1000 * features + num_rows);
      for (const std::size_t bits : {1, 8, 24, 32, 64}) {
        SignatureModelConfig config;
        config.num_bits = bits;
        config.seed = cell++ % 2 == 0 ? 7 : 600;
        for (const std::string key : {"trained", "itq"}) {
          if (key == "itq" && bits == 64 &&
              (num_rows != 33 || (features != 12 && features != 97))) {
            continue;
          }
          auto model = SignatureModelFactory::instance().create(key, config);
          model->fit(rows);
          const scalar_reference::Fit want =
              key == "itq" ? scalar_reference::itq(rows, bits, config.seed)
                           : scalar_reference::trained(rows, bits, config.seed);
          const std::string where = key + " features " + std::to_string(features) +
                                    " rows " + std::to_string(num_rows) + " bits " +
                                    std::to_string(bits) + " seed " +
                                    std::to_string(config.seed);
          EXPECT_EQ(float_bits(model->planes()), float_bits(want.planes)) << where;
          EXPECT_EQ(float_bits(model->thresholds()), float_bits(want.thresholds)) << where;
        }
      }
    }
  }
}

TEST_P(SignatureModelOnBackend, ProjectMatchesPerBitReference) {
  // project() runs across bits over transposed planes, which fit and
  // install_state derive; every margin must equal the per-bit dot product,
  // a NaN feature included.
  for (const std::size_t features : {1, 5, 48, 97}) {
    for (const std::size_t bits : {1, 8, 32, 64}) {
      const auto rows = make_rows(40, features, 77 + features);
      SignatureModelConfig config;
      config.num_bits = bits;
      for (const char* key : {"random", "trained"}) {
        auto fitted = SignatureModelFactory::instance().create(key, config);
        fitted->fit(rows);
        auto installed = SignatureModelFactory::instance().create(key, config);
        installed->install_state(features, fitted->planes(), fitted->thresholds());
        std::vector<std::vector<float>> queries = make_rows(8, features, 5);
        queries.push_back(queries.front());
        queries.back()[features / 2] = std::numeric_limits<float>::quiet_NaN();
        for (const auto& q : queries) {
          const std::string where = std::string{key} + " features " +
                                    std::to_string(features) + " bits " +
                                    std::to_string(bits);
          const std::vector<std::uint32_t> want =
              float_bits(scalar_reference::project(*fitted, q));
          EXPECT_EQ(float_bits(fitted->project(q)), want) << where;
          EXPECT_EQ(float_bits(installed->project(q)), want) << where;
        }
      }
    }
  }
}

TEST(SignatureProducts, ForceScalarPinsDispatch) {
  const testing_util::ForceScalarGuard guard;
  distance::kernels::set_force_scalar(true);
  EXPECT_EQ(&products::active_ops(), &products::scalar_ops());
  EXPECT_STREQ(products::active_ops().name, "scalar");
  distance::kernels::set_force_scalar(false);
  const products::ProductOps* best = products::avx2_ops();
  EXPECT_EQ(&products::active_ops(), best != nullptr ? best : &products::scalar_ops());
}

TEST(SignatureProducts, Avx2MatchesBaselineBits) {
  // Every output must be the baseline loop's sum, raw bits included: a
  // fused multiply-add or any other summation order fails here. Widths
  // cover whole, partial and masked vectors of outputs; row counts cover
  // the three-row passes and one or two rows left over. Values mix in
  // signed zeros, denormals, and (sparsely, so most sums stay finite)
  // infinities and NaN, plus a run at 1e-20 whose products are all
  // denormal. Every NaN here has the bits an invalid operation (inf * 0)
  // makes on x86, so no comparison hinges on which of two different NaNs
  // an add returns, which IEEE 754 leaves open (sig/products.hpp).
  const products::ProductOps* avx2 = products::avx2_ops();
  if (avx2 == nullptr) GTEST_SKIP() << "host has no AVX2 products backend";
  const float kInf = std::numeric_limits<float>::infinity();
  const float kNaN = std::bit_cast<float>(0xffc00000u);
  const float kDenormal = std::numeric_limits<float>::denorm_min();
  const float kSparse[] = {kInf, -kInf, kNaN};
  // Each case copies its values from one drawn pool at a random offset
  // (drawing them per case costs seconds), then sets two sparse ones.
  Rng rng{2024};
  std::vector<float> pool(1 << 16);
  for (float& v : pool) {
    switch (rng.index(16)) {
      case 0: v = rng.bernoulli(0.5) ? 0.0f : -0.0f; break;
      case 1:
        v = static_cast<float>(rng.index(64) + 1) * (rng.bernoulli(0.5) ? kDenormal : -kDenormal);
        break;
      default: v = static_cast<float>(rng.normal());
    }
  }
  const auto fill = [&](std::vector<float>& values, float scale) {
    const std::size_t offset = rng.index(pool.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] = pool[(offset + i) % pool.size()] * scale;
    }
    for (int k = 0; k < 2; ++k) values[rng.index(values.size())] = kSparse[rng.index(3)];
  };
  for (const std::size_t width : {1, 7, 8, 15, 16, 17, 31, 32, 33, 48, 64, 97}) {
    for (const std::size_t len : {1, 2, 33, 4096}) {
      for (const std::size_t rows : {1, 2, 3, 4, 5, 9}) {
        for (const float scale : {1.0f, 1e-20f}) {
          if (scale != 1.0f && len > 33) continue;  // Denormal arithmetic is slow.
          std::vector<float> x(rows * len);
          std::vector<float> mat(len * width);
          fill(x, scale);
          fill(mat, scale);
          std::vector<float> want(rows * width, 42.0f);
          std::vector<float> got(rows * width, 42.0f);
          products::scalar_ops().mat_mul(x.data(), rows, len, mat.data(), width, want.data());
          avx2->mat_mul(x.data(), rows, len, mat.data(), width, got.data());
          for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]), std::bit_cast<std::uint32_t>(want[i]))
                << "width " << width << " len " << len << " rows " << rows << " scale "
                << scale << " output (" << i / width << ", " << i % width << "): baseline "
                << want[i] << ", avx2 " << got[i];
          }
        }
      }
    }
  }
}

TEST(SignatureModel, FitRejectsRaggedRows) {
  // The fits read every row at the first row's width without checks, so a
  // row of another width must be refused before any state changes.
  SignatureModelConfig config;
  config.num_bits = 8;
  for (const std::size_t width : {3, 13}) {
    auto rows = make_rows(64, 12, 31);
    rows[40].resize(width, 0.5f);
    for (const char* key : {"random", "trained", "itq"}) {
      auto model = SignatureModelFactory::instance().create(key, config);
      try {
        model->fit(rows);
        FAIL() << key << " accepted a row of width " << width;
      } catch (const std::invalid_argument& error) {
        EXPECT_NE(std::string{error.what()}.find("row 40"), std::string::npos)
            << error.what();
      }
      EXPECT_FALSE(model->fitted()) << key;
    }
  }
}

TEST(SignatureModel, FitRejectsNonFiniteValuesNamingTheFeature) {
  // One NaN or infinity used to fit planes that put every row on the same
  // side of every threshold, silently blinding the coarse stage.
  SignatureModelConfig config;
  config.num_bits = 8;
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    auto rows = make_rows(64, 12, 37);
    rows[17][5] = bad;
    for (const char* key : {"random", "trained", "itq"}) {
      auto model = SignatureModelFactory::instance().create(key, config);
      try {
        model->fit(rows);
        FAIL() << key << " accepted " << bad;
      } catch (const std::invalid_argument& error) {
        EXPECT_NE(std::string{error.what()}.find("non-finite value at feature 5"),
                  std::string::npos)
            << error.what();
      }
      EXPECT_FALSE(model->fitted()) << key;
    }
  }
}

TEST(SignatureModel, InstallStateRoundTripsBitExactly) {
  SignatureModelConfig config;
  config.num_bits = 9;
  const auto rows = make_rows(60, 4, 23);
  for (const char* key : {"random", "trained", "itq"}) {
    auto fitted = SignatureModelFactory::instance().create(key, config);
    fitted->fit(rows);
    auto restored = SignatureModelFactory::instance().create(key, config);
    restored->install_state(fitted->num_features(), fitted->planes(),
                            fitted->thresholds());
    for (const auto& row : rows) {
      EXPECT_EQ(restored->encode_bits(row), fitted->encode_bits(row)) << key;
      EXPECT_EQ(restored->project(row), fitted->project(row)) << key;
    }
  }
  auto model = SignatureModelFactory::instance().create("random", config);
  EXPECT_THROW(model->install_state(0, {}, {}), std::invalid_argument);
  EXPECT_THROW(model->install_state(4, std::vector<float>(9 * 4, 0.0f),
                                    std::vector<float>(8, 0.0f)),
               std::invalid_argument);
  EXPECT_THROW(model->install_state(4, std::vector<float>(9 * 3, 0.0f),
                                    std::vector<float>(9, 0.0f)),
               std::invalid_argument);
  // Non-finite state: a NaN plane or an infinite threshold.
  std::vector<float> nan_plane(9 * 4, 0.5f);
  nan_plane[13] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(model->install_state(4, nan_plane, std::vector<float>(9, 0.0f)),
               std::invalid_argument);
  std::vector<float> inf_threshold(9, 0.0f);
  inf_threshold[2] = std::numeric_limits<float>::infinity();
  EXPECT_THROW(model->install_state(4, std::vector<float>(9 * 4, 0.5f), inf_threshold),
               std::invalid_argument);
  EXPECT_FALSE(model->fitted());
}

// The random model is the TCAM+LSH baseline's encoder: sign-of-random-
// projection LSH, whose Hamming distance approximates the angle.

/// A random model over `features` inputs; its planes read only the width.
std::unique_ptr<SignatureModel> random_model(std::size_t features, std::size_t bits,
                                             std::uint64_t seed) {
  SignatureModelConfig config;
  config.num_bits = bits;
  config.seed = seed;
  auto model = SignatureModelFactory::instance().create("random", config);
  model->fit(std::vector<std::vector<float>>{std::vector<float>(features, 0.0f)});
  return model;
}

std::vector<float> gaussian(std::size_t dim, Rng& rng) {
  std::vector<float> v(dim);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

std::size_t hamming(const SignatureModel& model, std::span<const float> a,
                    std::span<const float> b) {
  const std::vector<std::uint8_t> x = model.encode_bits(a);
  const std::vector<std::uint8_t> y = model.encode_bits(b);
  std::size_t distance = 0;
  for (std::size_t i = 0; i < x.size(); ++i) distance += x[i] != y[i];
  return distance;
}

TEST(RandomModel, DeterministicGivenSeed) {
  const auto a = random_model(16, 64, 9);
  const auto b = random_model(16, 64, 9);
  Rng rng{2};
  const std::vector<float> v = gaussian(16, rng);
  EXPECT_EQ(a->encode_bits(v), b->encode_bits(v));
  EXPECT_NE(random_model(16, 64, 10)->planes(), a->planes());
}

TEST(RandomModel, IdenticalVectorsHaveZeroHamming) {
  const auto model = random_model(16, 64, 4);
  Rng rng{3};
  const std::vector<float> v = gaussian(16, rng);
  EXPECT_EQ(hamming(*model, v, v), 0u);
}

TEST(RandomModel, OppositeVectorsHaveFullHamming) {
  const auto model = random_model(16, 64, 5);
  Rng rng{4};
  const std::vector<float> v = gaussian(16, rng);
  std::vector<float> neg(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) neg[i] = -v[i];
  // Sign flip flips every projection (ties measure zero).
  EXPECT_EQ(hamming(*model, v, neg), 64u);
}

TEST(RandomModel, HammingTracksAngle) {
  // Collision probability of sign-LSH is 1 - theta/pi: expected normalized
  // Hamming distance equals theta/pi. Verify within sampling tolerance.
  constexpr std::size_t kBits = 2048;
  const auto model = random_model(2, kBits, 6);
  const double theta = std::numbers::pi / 3.0;  // 60 degrees.
  const std::vector<float> a{1.0f, 0.0f};
  const std::vector<float> b{static_cast<float>(std::cos(theta)),
                             static_cast<float>(std::sin(theta))};
  const double normalized = static_cast<double>(hamming(*model, a, b)) / kBits;
  EXPECT_NEAR(normalized, theta / std::numbers::pi, 0.04);
}

TEST(RandomModel, MoreBitsBetterCosineApproximation) {
  Rng rng{8};
  const std::size_t dim = 32;
  const auto correlation = [&](std::size_t bits) {
    const auto model = random_model(dim, bits, 11);
    std::vector<double> cos_d;
    std::vector<double> ham_d;
    for (int pair = 0; pair < 120; ++pair) {
      const std::vector<float> a = gaussian(dim, rng);
      const std::vector<float> b = gaussian(dim, rng);
      cos_d.push_back(distance::cosine(a, b));
      ham_d.push_back(static_cast<double>(hamming(*model, a, b)) /
                      static_cast<double>(bits));
    }
    const auto mean = [](const std::vector<double>& xs) {
      return std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
    };
    const double mx = mean(cos_d);
    const double my = mean(ham_d);
    double sxy = 0.0;
    double sxx = 0.0;
    double syy = 0.0;
    for (std::size_t i = 0; i < cos_d.size(); ++i) {
      sxy += (cos_d[i] - mx) * (ham_d[i] - my);
      sxx += (cos_d[i] - mx) * (cos_d[i] - mx);
      syy += (ham_d[i] - my) * (ham_d[i] - my);
    }
    return sxy / std::sqrt(sxx * syy);
  };
  EXPECT_GT(correlation(512), correlation(16));
}

TEST(RandomModel, Validation) {
  SignatureModelConfig zero_bits;
  zero_bits.seed = 1;
  EXPECT_THROW((void)SignatureModelFactory::instance().create("random", zero_bits),
               std::invalid_argument);
  SignatureModelConfig config;
  config.num_bits = 64;
  auto model = SignatureModelFactory::instance().create("random", config);
  EXPECT_THROW(model->fit(std::vector<std::vector<float>>{std::vector<float>{}}),
               std::invalid_argument);  // Zero features.
  EXPECT_FALSE(model->fitted());
  model->fit(std::vector<std::vector<float>>{std::vector<float>(16, 0.0f)});
  EXPECT_THROW((void)model->encode_bits(std::vector<float>(8, 0.0f)), std::invalid_argument);
}

TEST(MultiProbe, BaseFirstThenIncreasingMarginCost) {
  const std::vector<float> margins{0.9f, -0.1f, 0.4f, -0.02f, 1.5f};
  const auto probes = MultiProbe::sequence(margins, 8);
  ASSERT_EQ(probes.size(), 8u);
  EXPECT_TRUE(probes[0].empty());  // Probe 0 is the unperturbed signature.
  // Flip sets are distinct and their summed |margin| costs nondecreasing.
  std::set<std::vector<std::size_t>> seen;
  double last_cost = 0.0;
  for (std::size_t p = 1; p < probes.size(); ++p) {
    EXPECT_TRUE(seen.insert(probes[p]).second) << "duplicate probe " << p;
    double cost = 0.0;
    for (std::size_t bit : probes[p]) {
      ASSERT_LT(bit, margins.size());
      cost += std::abs(margins[bit]);
    }
    EXPECT_GE(cost, last_cost) << "probe " << p << " out of order";
    last_cost = cost;
  }
  // The cheapest probes flip exactly the lowest-margin bits.
  EXPECT_EQ(probes[1], (std::vector<std::size_t>{3}));   // |margin| 0.02
  EXPECT_EQ(probes[2], (std::vector<std::size_t>{1}));   // |margin| 0.1
  EXPECT_EQ(probes[3], (std::vector<std::size_t>{1, 3}));  // 0.12
}

TEST(MultiProbe, BudgetAndDegenerateInputs) {
  // max_probes 0/1 both give just the base signature.
  EXPECT_EQ(MultiProbe::sequence(std::vector<float>{0.5f}, 0).size(), 1u);
  EXPECT_EQ(MultiProbe::sequence(std::vector<float>{0.5f}, 1).size(), 1u);
  // No margins: nothing to flip, whatever the budget.
  EXPECT_EQ(MultiProbe::sequence({}, 16).size(), 1u);
  // A 2-bit signature has only 3 flip sets: the sequence saturates.
  const auto probes = MultiProbe::sequence(std::vector<float>{0.3f, -0.7f}, 100);
  ASSERT_EQ(probes.size(), 4u);
  EXPECT_EQ(probes[1], (std::vector<std::size_t>{0}));
  EXPECT_EQ(probes[2], (std::vector<std::size_t>{1}));
  EXPECT_EQ(probes[3], (std::vector<std::size_t>{0, 1}));
  // Ties break deterministically (lower bit index first).
  const auto tied = MultiProbe::sequence(std::vector<float>{0.5f, -0.5f, 0.5f}, 4);
  EXPECT_EQ(tied[1], (std::vector<std::size_t>{0}));
  EXPECT_EQ(tied[2], (std::vector<std::size_t>{1}));
  EXPECT_EQ(tied[3], (std::vector<std::size_t>{2}));
}

}  // namespace
}  // namespace mcam::sig
