#include "sig/model.hpp"

#include "ml/tensor.hpp"
#include "sig/products.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace mcam::sig {

namespace {

constexpr std::size_t kPowerIterations = 64;   ///< Per principal direction.
constexpr std::size_t kItqIterations = 24;     ///< Binarize/rotate alternations.
constexpr std::size_t kJacobiSweeps = 30;      ///< Symmetric eigensolver cap.

/// out = x mat on the dispatched backend, for a row-major [rows x len] `x`,
/// [len x width] `mat` and [rows x width] `out`. Every output adds
/// x(r, c) * mat(c, b) in ascending c from +0.0f, the one-output dot
/// product's sum, so every backend gives the same bits (sig/products.hpp).
void mat_mul(const float* x, std::size_t rows, std::size_t len, const float* mat,
             std::size_t width, float* out) {
  products::active_ops().mat_mul(x, rows, len, mat, width, out);
}

/// Row-major transpose of a row-major [rows x cols] matrix.
std::vector<float> transpose(const float* src, std::size_t rows, std::size_t cols) {
  std::vector<float> out(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) out[c * rows + r] = src[r * cols + c];
  }
  return out;
}

/// [f x width] matrix whose column b is directions[b % directions.size()]:
/// the basis `mat_mul` projects rows onto every (cycled) direction with.
std::vector<float> direction_columns(const std::vector<std::vector<float>>& directions,
                                     std::size_t f, std::size_t width) {
  std::vector<float> out(f * width);
  for (std::size_t b = 0; b < width; ++b) {
    const std::vector<float>& dir = directions[b % directions.size()];
    for (std::size_t c = 0; c < f; ++c) out[c * width + b] = dir[c];
  }
  return out;
}

/// out row i = (rows[i] - mean) basis for a row-major [f x width] `basis`,
/// or rows[i] basis when `mean` is empty. The rows are copied (centered)
/// kStageRows at a time into one dense block, so the product takes several
/// rows per pass over the basis.
void project_rows(std::span<const std::vector<float>> rows, std::span<const float> mean,
                  const float* basis, std::size_t width, float* out) {
  constexpr std::size_t kStageRows = 64;
  const std::size_t f = rows.front().size();
  std::vector<float> stage(kStageRows * f);
  for (std::size_t i0 = 0; i0 < rows.size(); i0 += kStageRows) {
    const std::size_t count = std::min(kStageRows, rows.size() - i0);
    for (std::size_t i = 0; i < count; ++i) {
      const std::vector<float>& row = rows[i0 + i];
      float* staged = &stage[i * f];
      for (std::size_t c = 0; c < f; ++c) staged[c] = mean.empty() ? row[c] : row[c] - mean[c];
    }
    mat_mul(stage.data(), count, f, basis, width, out + i0 * width);
  }
}

std::vector<float> feature_mean(std::span<const std::vector<float>> rows) {
  std::vector<float> mean(rows.front().size(), 0.0f);
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < mean.size(); ++i) mean[i] += row[i];
  }
  const float inv_n = 1.0f / static_cast<float>(rows.size());
  for (float& m : mean) m *= inv_n;
  return mean;
}

/// Covariance of the calibration rows [f x f] on the ml::Tensor substrate.
/// Exactly symmetric: the lower triangle mirrors the upper.
ml::Tensor covariance(std::span<const std::vector<float>> rows,
                      std::span<const float> mean) {
  const std::size_t f = mean.size();
  ml::Tensor cov({f, f});
  float* out = cov.data().data();
  std::vector<float> centered(f);
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < f; ++c) centered[c] = row[c] - mean[c];
    for (std::size_t a = 0; a < f; ++a) {
      const float da = centered[a];
      float* cov_row = out + a * f;
      for (std::size_t b = a; b < f; ++b) cov_row[b] += da * centered[b];
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

/// Top principal directions of `cov` by power iteration with deflation
/// (re-orthogonalized against the directions already found, so numerical
/// drift cannot resurrect a deflated component). Deterministic: the start
/// vectors come from the seeded rng. Eigenvalues are clamped to >= 0.
///
/// Works on the transpose, cov_t(b, a) = cov(a, b), so cov * v runs across
/// outputs (mat_mul). `cov` arrives exactly symmetric, so its storage is
/// already the transpose. Deflation subtracts (lambda * v[a]) * v[b] at
/// (a, b) but (lambda * v[b]) * v[a] at (b, a), which may round apart, so
/// each element of cov_t takes its own (a, b) expression and no element is
/// ever read from its mirror.
void principal_directions(ml::Tensor cov, std::size_t count, Rng& rng,
                          std::vector<std::vector<float>>& directions,
                          std::vector<float>& eigenvalues) {
  const std::size_t f = cov.shape().front();
  float* cov_t = cov.data().data();
  directions.clear();
  eigenvalues.clear();
  for (std::size_t j = 0; j < count; ++j) {
    std::vector<float> v(f);
    for (float& x : v) x = static_cast<float>(rng.normal());
    std::vector<float> w(f);
    for (std::size_t iter = 0; iter < kPowerIterations; ++iter) {
      // Project out the directions already extracted, then apply cov.
      for (const auto& prev : directions) {
        float proj = 0.0f;
        for (std::size_t i = 0; i < f; ++i) proj += prev[i] * v[i];
        for (std::size_t i = 0; i < f; ++i) v[i] -= proj * prev[i];
      }
      mat_mul(v.data(), 1, f, cov_t, f, w.data());
      const float norm = vector_norm(w);
      if (norm < 1e-20f) break;  // Null space: keep the current v.
      for (std::size_t i = 0; i < f; ++i) v[i] = w[i] / norm;
    }
    const float norm = vector_norm(v);
    if (norm < 1e-20f) {
      // Degenerate start (or exhausted spectrum): fall back to a basis
      // vector so the direction is still deterministic and unit-length.
      std::fill(v.begin(), v.end(), 0.0f);
      v[j % f] = 1.0f;
    } else {
      for (float& x : v) x /= norm;
    }
    mat_mul(v.data(), 1, f, cov_t, f, w.data());
    float lambda = 0.0f;
    for (std::size_t a = 0; a < f; ++a) lambda += v[a] * w[a];
    lambda = std::max(lambda, 0.0f);
    for (std::size_t b = 0; b < f; ++b) {
      float* column = cov_t + b * f;  // cov(., b)
      for (std::size_t a = 0; a < f; ++a) column[a] -= lambda * v[a] * v[b];
    }
    directions.push_back(std::move(v));
    eigenvalues.push_back(lambda);
  }
}

/// Cyclic Jacobi eigendecomposition of a symmetric matrix: on return
/// `sym` holds the eigenvalues on its diagonal and `rotation` the
/// eigenvectors as columns. Deterministic sweep order and early exit.
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

/// Nearest orthogonal matrix to M (polar factor): R = M (M^T M)^{-1/2},
/// the orthogonal-Procrustes solution the ITQ rotation update needs.
/// Falls back to the identity when M is (numerically) zero. Every product
/// runs across outputs (mat_mul) over rows of M^T, of Q diag, or of M.
ml::Tensor polar_orthogonal(const ml::Tensor& m_mat) {
  const std::size_t m = m_mat.shape().front();
  const float* mat = m_mat.data().data();
  // M^T M, row a = column a of M times M. Entry (b, a) adds the same
  // products as (a, b) in the same order, so the result is exactly
  // symmetric.
  const std::vector<float> mat_t = transpose(mat, m, m);
  ml::Tensor sym({m, m});
  mat_mul(mat_t.data(), m, m, mat, m, sym.data().data());
  ml::Tensor eigvecs;
  jacobi_eigen(sym, eigvecs);
  float max_eig = 0.0f;
  for (std::size_t i = 0; i < m; ++i) max_eig = std::max(max_eig, sym.at(i, i));
  ml::Tensor result({m, m});
  if (max_eig <= 0.0f) {
    for (std::size_t i = 0; i < m; ++i) result.at(i, i) = 1.0f;
    return result;
  }
  // R = M * Q * diag(1/sqrt(lambda)) * Q^T, with tiny eigenvalues floored
  // so a rank-deficient M still yields a finite (near-orthogonal) factor.
  std::vector<float> inv_sqrt(m);
  for (std::size_t i = 0; i < m; ++i) {
    inv_sqrt[i] = 1.0f / std::sqrt(std::max(sym.at(i, i), 1e-12f * max_eig));
  }
  const float* q = eigvecs.data().data();
  const std::vector<float> q_t = transpose(q, m, m);
  std::vector<float> weights(m * m);  // Q * diag.
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t k = 0; k < m; ++k) weights[a * m + k] = q[a * m + k] * inv_sqrt[k];
  }
  std::vector<float> scaled(m * m);  // Q * diag * Q^T.
  mat_mul(weights.data(), m, m, q_t.data(), m, scaled.data());
  mat_mul(mat, m, m, scaled.data(), m, result.data().data());
  return result;
}

/// Seeded random orthogonal matrix (Gaussian + Gram-Schmidt columns).
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

/// Every fit reads its rows unchecked, so a calibration set must be
/// non-empty, rectangular and finite; checked before any state changes.
void require_calibration(std::span<const std::vector<float>> rows, const char* who) {
  if (rows.empty() || rows.front().empty()) {
    throw std::invalid_argument{std::string{who} + ": empty calibration set"};
  }
  const std::size_t width = rows.front().size();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != width) {
      throw std::invalid_argument{std::string{who} + ": ragged calibration set (row " +
                                  std::to_string(r) + " has " +
                                  std::to_string(rows[r].size()) + " features, row 0 has " +
                                  std::to_string(width) + ")"};
    }
    for (std::size_t c = 0; c < width; ++c) {
      if (!std::isfinite(rows[r][c])) {
        throw std::invalid_argument{std::string{who} + ": non-finite value at feature " +
                                    std::to_string(c) + " of row " + std::to_string(r)};
      }
    }
  }
}

}  // namespace

// --- SignatureModel base -----------------------------------------------------

SignatureModel::SignatureModel(const SignatureModelConfig& config) : config_(config) {
  if (config_.num_bits == 0) {
    throw std::invalid_argument{"SignatureModel: num_bits must be positive"};
  }
}

void SignatureModel::reset() noexcept {
  num_features_ = 0;
  planes_.clear();
  planes_t_.clear();
  thresholds_.clear();
}

void SignatureModel::install_state(std::size_t num_features, std::vector<float> planes,
                                   std::vector<float> thresholds) {
  if (num_features == 0 || planes.size() != config_.num_bits * num_features ||
      thresholds.size() != config_.num_bits) {
    throw std::invalid_argument{"SignatureModel::install_state: bad state shape"};
  }
  const auto finite = [](float x) { return std::isfinite(x); };
  if (!std::all_of(planes.begin(), planes.end(), finite) ||
      !std::all_of(thresholds.begin(), thresholds.end(), finite)) {
    throw std::invalid_argument{"SignatureModel::install_state: non-finite state"};
  }
  planes_t_ = transpose(planes.data(), config_.num_bits, num_features);
  num_features_ = num_features;
  planes_ = std::move(planes);
  thresholds_ = std::move(thresholds);
}

std::vector<std::uint8_t> signature_bits(std::span<const float> margins) {
  std::vector<std::uint8_t> bits(margins.size());
  for (std::size_t b = 0; b < margins.size(); ++b) {
    bits[b] = margins[b] >= 0.0f ? 1 : 0;
  }
  return bits;
}

std::vector<std::uint8_t> SignatureModel::encode_bits(
    std::span<const float> features) const {
  return signature_bits(project(features));
}

std::vector<float> SignatureModel::project(std::span<const float> features) const {
  if (!fitted()) throw std::logic_error{"SignatureModel::project before fit"};
  if (features.size() != num_features_) {
    throw std::invalid_argument{"SignatureModel::project: width mismatch"};
  }
  // The one projection loop: each bit adds plane_b[f] * x[f] in ascending
  // f (the sum order every pinned signature was made with), across the bits
  // over the transposed planes.
  std::vector<float> margins(config_.num_bits);
  mat_mul(features.data(), 1, num_features_, planes_t_.data(), config_.num_bits,
          margins.data());
  for (std::size_t b = 0; b < config_.num_bits; ++b) margins[b] -= thresholds_[b];
  return margins;
}

// --- random ------------------------------------------------------------------

RandomSignatureModel::RandomSignatureModel(const SignatureModelConfig& config)
    : SignatureModel(config) {}

void RandomSignatureModel::fit(std::span<const std::vector<float>> rows) {
  if (fitted()) return;
  require_calibration(rows, "RandomSignatureModel::fit");
  // One standard normal per weight, row-major: the planes of every saved
  // TCAM+LSH engine and v2 coarse stage were drawn in this order.
  const std::size_t width = rows.front().size();
  Rng rng{config().seed};
  std::vector<float> planes(num_bits() * width);
  for (float& w : planes) w = static_cast<float>(rng.normal());
  install_state(width, std::move(planes), std::vector<float>(num_bits(), 0.0f));
}

// --- trained -----------------------------------------------------------------

TrainedSignatureModel::TrainedSignatureModel(const SignatureModelConfig& config)
    : SignatureModel(config) {}

void TrainedSignatureModel::fit(std::span<const std::vector<float>> rows) {
  if (fitted()) return;
  require_calibration(rows, "TrainedSignatureModel::fit");
  const std::size_t f = rows.front().size();
  const std::size_t bits = num_bits();
  const std::vector<float> mean = feature_mean(rows);
  Rng rng{config().seed};

  const std::size_t num_dirs = std::min(bits, f);
  std::vector<std::vector<float>> directions;
  std::vector<float> eigenvalues;
  principal_directions(covariance(rows, mean), num_dirs, rng, directions, eigenvalues);

  // Variance-balanced bit apportionment: each direction's share of the
  // signature is proportional to its spread (sqrt eigenvalue), assigned
  // by largest remainder so the counts sum to num_bits exactly. A flat
  // spectrum degenerates to an even split.
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

  // Each direction's bits threshold at evenly spaced quantiles of the
  // calibration projections, so every bit splits the data into balanced
  // cells instead of slicing at an arbitrary offset.
  const std::vector<float> basis = direction_columns(directions, f, num_dirs);
  std::vector<float> projected(rows.size() * num_dirs);  // Row-major [n x num_dirs].
  project_rows(rows, {}, basis.data(), num_dirs, projected.data());
  std::vector<float> planes;
  planes.reserve(bits * f);
  std::vector<float> thresholds;
  thresholds.reserve(bits);
  std::vector<float> projections(rows.size());
  for (std::size_t j = 0; j < num_dirs; ++j) {
    if (counts[j] == 0) continue;
    for (std::size_t r = 0; r < rows.size(); ++r) projections[r] = projected[r * num_dirs + j];
    std::sort(projections.begin(), projections.end());
    for (std::size_t t = 1; t <= counts[j]; ++t) {
      const std::size_t idx = std::min(t * rows.size() / (counts[j] + 1), rows.size() - 1);
      planes.insert(planes.end(), directions[j].begin(), directions[j].end());
      thresholds.push_back(projections[idx]);
    }
  }
  install_state(f, std::move(planes), std::move(thresholds));
}

// --- itq ---------------------------------------------------------------------

ItqSignatureModel::ItqSignatureModel(const SignatureModelConfig& config)
    : SignatureModel(config) {}

void ItqSignatureModel::fit(std::span<const std::vector<float>> rows) {
  if (fitted()) return;
  require_calibration(rows, "ItqSignatureModel::fit");
  const std::size_t n = rows.size();
  const std::size_t f = rows.front().size();
  const std::size_t bits = num_bits();
  const std::vector<float> mean = feature_mean(rows);
  Rng rng{config().seed};

  // PCA basis; when the signature is wider than the feature space the
  // principal directions are cycled, and the learned rotation is what
  // decorrelates the duplicated projections into distinct bits.
  const std::size_t num_dirs = std::min(bits, f);
  std::vector<std::vector<float>> directions;
  std::vector<float> eigenvalues;
  principal_directions(covariance(rows, mean), num_dirs, rng, directions, eigenvalues);

  // Centered rows in the (cycled) PCA basis, row-major [n x bits].
  const std::vector<float> basis = direction_columns(directions, f, bits);
  std::vector<float> v_mat(n * bits);
  project_rows(rows, mean, basis.data(), bits, v_mat.data());

  // ITQ alternation: binarize (B = sign(V R)), then re-solve the
  // orthogonal rotation minimizing ||B - V R||_F (Procrustes: the polar
  // factor of V^T B). Deterministic for a fixed seed. Row j of V^T B adds
  // v(i, j) * b(i, .) over the rows i in order: row j of V^T times B.
  const std::vector<float> v_t = transpose(v_mat.data(), n, bits);
  std::vector<float> signs(n * bits);  // B, row-major [n x bits].
  ml::Tensor rotation = random_rotation(bits, rng);
  for (std::size_t iter = 0; iter < kItqIterations; ++iter) {
    mat_mul(v_mat.data(), n, bits, rotation.data().data(), bits, signs.data());
    for (float& sign : signs) sign = sign >= 0.0f ? 1.0f : -1.0f;
    ml::Tensor m_mat({bits, bits});  // V^T B.
    mat_mul(v_t.data(), bits, n, signs.data(), bits, m_mat.data().data());
    rotation = polar_orthogonal(m_mat);
  }

  // Collapse PCA + rotation + centering into the uniform linear shape:
  // plane_b = sum_j R[j][b] dir_{j % d}, threshold_b = plane_b . mean.
  std::vector<float> planes(bits * f, 0.0f);
  std::vector<float> thresholds(bits, 0.0f);
  for (std::size_t b = 0; b < bits; ++b) {
    float* plane = &planes[b * f];
    for (std::size_t j = 0; j < bits; ++j) {
      const float weight = rotation.at(j, b);
      const std::vector<float>& dir = directions[j % num_dirs];
      for (std::size_t c = 0; c < f; ++c) plane[c] += weight * dir[c];
    }
    float t = 0.0f;
    for (std::size_t c = 0; c < f; ++c) t += plane[c] * mean[c];
    thresholds[b] = t;
  }
  install_state(f, std::move(planes), std::move(thresholds));
}

// --- registry ----------------------------------------------------------------

SignatureModelFactory::SignatureModelFactory() {
  register_model("random", [](const SignatureModelConfig& config) {
    return std::unique_ptr<SignatureModel>{new RandomSignatureModel{config}};
  });
  register_model("trained", [](const SignatureModelConfig& config) {
    return std::unique_ptr<SignatureModel>{new TrainedSignatureModel{config}};
  });
  register_model("itq", [](const SignatureModelConfig& config) {
    return std::unique_ptr<SignatureModel>{new ItqSignatureModel{config}};
  });
}

SignatureModelFactory& SignatureModelFactory::instance() {
  static SignatureModelFactory factory;
  return factory;
}

void SignatureModelFactory::register_model(std::string name, Builder builder) {
  if (name.empty()) throw std::invalid_argument{"SignatureModelFactory: empty name"};
  if (!builder) {
    throw std::invalid_argument{"SignatureModelFactory: null builder for " + name};
  }
  builders_[std::move(name)] = std::move(builder);
}

std::unique_ptr<SignatureModel> SignatureModelFactory::create(
    const std::string& name, const SignatureModelConfig& config) const {
  const auto it = builders_.find(name);
  if (it == builders_.end()) {
    std::string known;
    for (const auto& [key, builder] : builders_) {
      if (!known.empty()) known += ", ";
      known += key;
    }
    throw std::invalid_argument{"SignatureModelFactory: unknown signature model '" +
                                name + "' (known: " + known + ")"};
  }
  return it->second(config);
}

bool SignatureModelFactory::contains(const std::string& name) const {
  return builders_.find(name) != builders_.end();
}

std::vector<std::string> SignatureModelFactory::registered_names() const {
  std::vector<std::string> names;
  names.reserve(builders_.size());
  for (const auto& [name, builder] : builders_) names.push_back(name);
  return names;
}

}  // namespace mcam::sig
