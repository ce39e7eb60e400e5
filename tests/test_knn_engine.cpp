#include "distance/kernels/kernels.hpp"
#include "distance/kernels/row_store.hpp"
#include "force_scalar_guard.hpp"
#include "search/engine.hpp"
#include "search/knn.hpp"
#include "search/selection.hpp"
#include "util/linalg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace mcam::search {
namespace {

namespace kernels = distance::kernels;
using distance::MetricKind;
using testing_util::ForceScalarGuard;

struct NamedKind {
  MetricKind kind;
  const char* name;  ///< Its functor name (distance::metric_by_name).
};

constexpr NamedKind kAllKinds[] = {{MetricKind::kEuclidean, "euclidean"},
                                   {MetricKind::kSquaredEuclidean, "sq-euclidean"},
                                   {MetricKind::kCosine, "cosine"},
                                   {MetricKind::kManhattan, "manhattan"},
                                   {MetricKind::kLinf, "linf"}};

/// Two well-separated Gaussian blobs in 8 dimensions.
struct Blobs {
  std::vector<std::vector<float>> train;
  std::vector<int> train_labels;
  std::vector<std::vector<float>> test;
  std::vector<int> test_labels;
};

Blobs make_blobs(std::size_t per_class, double spread, std::uint64_t seed) {
  Blobs blobs;
  Rng rng{seed};
  const auto sample = [&rng, spread](int cls) {
    std::vector<float> v(8);
    for (std::size_t i = 0; i < 8; ++i) {
      const double center = cls == 0 ? 1.0 : (i % 2 == 0 ? 4.0 : -2.0);
      v[i] = static_cast<float>(rng.normal(center, spread));
    }
    return v;
  };
  for (int cls = 0; cls < 2; ++cls) {
    for (std::size_t i = 0; i < per_class; ++i) {
      blobs.train.push_back(sample(cls));
      blobs.train_labels.push_back(cls);
      blobs.test.push_back(sample(cls));
      blobs.test_labels.push_back(cls);
    }
  }
  return blobs;
}

TEST(ExactNnIndex, NearestMatchesBruteForce) {
  Rng rng{3};
  ExactNnIndex index{distance::metric_by_name("euclidean")};
  std::vector<std::vector<float>> rows;
  for (int r = 0; r < 50; ++r) {
    std::vector<float> v(4);
    for (auto& x : v) x = static_cast<float>(rng.normal());
    rows.push_back(v);
    index.add(v, r);
  }
  for (int q = 0; q < 20; ++q) {
    std::vector<float> query(4);
    for (auto& x : query) x = static_cast<float>(rng.normal());
    const Neighbor found = index.nearest(query);
    double best = 1e30;
    std::size_t best_idx = 0;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const double d = distance::euclidean(query, rows[r]);
      if (d < best) {
        best = d;
        best_idx = r;
      }
    }
    EXPECT_EQ(found.index, best_idx);
    EXPECT_NEAR(found.distance, best, 1e-9);
  }
}

TEST(ExactNnIndex, KNearestSortedAndDistinct) {
  Rng rng{5};
  ExactNnIndex index{distance::metric_by_name("euclidean")};
  for (int r = 0; r < 30; ++r) {
    std::vector<float> v(3);
    for (auto& x : v) x = static_cast<float>(rng.normal());
    index.add(v, r % 3);
  }
  const std::vector<float> query{0.0f, 0.0f, 0.0f};
  const auto neighbors = index.k_nearest(query, 7);
  ASSERT_EQ(neighbors.size(), 7u);
  for (std::size_t i = 1; i < neighbors.size(); ++i) {
    EXPECT_GE(neighbors[i].distance, neighbors[i - 1].distance);
    EXPECT_NE(neighbors[i].index, neighbors[i - 1].index);
  }
}

TEST(ExactNnIndex, KLargerThanSizeClamps) {
  ExactNnIndex index{distance::metric_by_name("euclidean")};
  index.add({0.0f}, 0);
  index.add({1.0f}, 1);
  EXPECT_EQ(index.k_nearest(std::vector<float>{0.2f}, 10).size(), 2u);
}

TEST(ExactNnIndex, KNearestFollowsTheOneKConvention) {
  // Regression (k-convention drift): every query_one normalized k = 0 to
  // 1-NN while k_nearest returned {} - so the same logical query could
  // produce two different answers (and two service-cache entries) under
  // k = 0 and k = 1. One contract now (search/index.hpp): k is clamped to
  // [1, size()], and only an empty index yields no neighbors.
  ExactNnIndex empty{distance::metric_by_name("euclidean")};
  EXPECT_TRUE(empty.k_nearest(std::vector<float>{1.0f}, 3).empty());
  ExactNnIndex index{distance::metric_by_name("euclidean")};
  index.add({0.0f}, 0);
  const auto zero_k = index.k_nearest(std::vector<float>{1.0f}, 0);
  const auto one_k = index.k_nearest(std::vector<float>{1.0f}, 1);
  ASSERT_EQ(zero_k.size(), 1u);
  EXPECT_EQ(zero_k.front().index, one_k.front().index);
  EXPECT_EQ(zero_k.front().distance, one_k.front().distance);
}

TEST(ExactNnIndex, KNearestTiesBreakByInsertionOrder) {
  // Regression: duplicate vectors are exact distance ties; the ordering
  // must be the deterministic insertion order, not partial_sort whim.
  ExactNnIndex index{distance::metric_by_name("euclidean")};
  index.add({1.0f}, 10);
  index.add({1.0f}, 11);
  index.add({1.0f}, 12);
  index.add({5.0f}, 13);
  const auto neighbors = index.k_nearest(std::vector<float>{1.0f}, 3);
  ASSERT_EQ(neighbors.size(), 3u);
  EXPECT_EQ(neighbors[0].index, 0u);
  EXPECT_EQ(neighbors[1].index, 1u);
  EXPECT_EQ(neighbors[2].index, 2u);
}

TEST(ExactNnIndex, ClassifyGuardsDegenerateK) {
  ExactNnIndex index{distance::metric_by_name("euclidean")};
  EXPECT_THROW((void)index.classify(std::vector<float>{1.0f}, 1), std::logic_error);
  index.add({0.0f}, 3);
  index.add({1.0f}, 4);
  // k = 0 degenerates to 1-NN instead of voting over nothing.
  EXPECT_EQ(index.classify(std::vector<float>{0.1f}, 0), 3);
  // k beyond size clamps.
  EXPECT_EQ(index.classify(std::vector<float>{0.1f}, 50), 3);
}

TEST(ExactNnIndex, ClassifyMajorityVote) {
  ExactNnIndex index{distance::metric_by_name("euclidean")};
  index.add({0.0f}, 7);
  index.add({0.1f}, 7);
  index.add({0.2f}, 9);
  EXPECT_EQ(index.classify(std::vector<float>{0.05f}, 3), 7);
}

TEST(ExactNnIndex, ClassifyK1IsNearestLabel) {
  ExactNnIndex index{distance::metric_by_name("euclidean")};
  index.add({0.0f}, 1);
  index.add({1.0f}, 2);
  EXPECT_EQ(index.classify(std::vector<float>{0.9f}, 1), 2);
}

TEST(ExactNnIndex, Validation) {
  EXPECT_THROW((ExactNnIndex{distance::Metric{}}), std::invalid_argument);
  ExactNnIndex index{distance::metric_by_name("euclidean")};
  EXPECT_THROW((void)index.nearest(std::vector<float>{1.0f}), std::logic_error);
  index.add({1.0f, 2.0f}, 0);
  EXPECT_THROW((void)index.add({1.0f}, 1), std::invalid_argument);
}

TEST(SoftwareNnEngine, PerfectOnSeparableBlobs) {
  const Blobs blobs = make_blobs(20, 0.3, 7);
  SoftwareNnEngine engine{"euclidean"};
  engine.add(blobs.train, blobs.train_labels);
  EXPECT_DOUBLE_EQ(engine.accuracy(blobs.test, blobs.test_labels), 1.0);
}

TEST(SoftwareNnEngine, UnknownMetricThrowsAtConstruction) {
  EXPECT_THROW((SoftwareNnEngine{"nope"}), std::invalid_argument);
}

TEST(SoftwareNnEngine, PredictBeforeFitThrows) {
  SoftwareNnEngine engine{"cosine"};
  EXPECT_THROW((void)engine.query_one(std::vector<float>{1.0f}, 1), std::logic_error);
}

TEST(McamNnEngine, MatchesSoftwareOnSeparableBlobs) {
  const Blobs blobs = make_blobs(20, 0.3, 9);
  McamNnEngine engine{};
  engine.add(blobs.train, blobs.train_labels);
  EXPECT_GE(engine.accuracy(blobs.test, blobs.test_labels), 0.97);
}

TEST(McamNnEngine, TwoBitStillSeparatesEasyBlobs) {
  const Blobs blobs = make_blobs(20, 0.3, 11);
  cam::McamArrayConfig config;
  config.level_map = fefet::LevelMap{2};
  McamNnEngine engine{config};
  engine.add(blobs.train, blobs.train_labels);
  EXPECT_GE(engine.accuracy(blobs.test, blobs.test_labels), 0.95);
}

TEST(McamNnEngine, FixedQuantizerIsUsed) {
  const Blobs blobs = make_blobs(10, 0.3, 13);
  McamNnEngine engine{};
  encoding::UniformQuantizer quantizer = encoding::UniformQuantizer::fit(blobs.train, 3);
  engine.set_fixed_quantizer(quantizer);
  // Fitting on a *single* support row would normally produce degenerate
  // ranges; the fixed quantizer avoids that.
  const std::vector<std::vector<float>> support{blobs.train[0], blobs.train.back()};
  const std::vector<int> support_labels{0, 1};
  engine.add(support, support_labels);
  EXPECT_EQ(engine.query_one(blobs.test[0], 1).label, 0);
  EXPECT_EQ(engine.query_one(blobs.test.back(), 1).label, 1);
}

TEST(McamNnEngine, FixedQuantizerBitsMismatchThrows) {
  const Blobs blobs = make_blobs(5, 0.3, 15);
  McamNnEngine engine{};  // 3-bit default.
  EXPECT_THROW(engine.set_fixed_quantizer(encoding::UniformQuantizer::fit(blobs.train, 2)),
               std::invalid_argument);
}

TEST(McamNnEngine, NameReflectsBits) {
  McamNnEngine engine3{};
  EXPECT_EQ(engine3.name(), "3-bit MCAM");
  cam::McamArrayConfig config;
  config.level_map = fefet::LevelMap{2};
  McamNnEngine engine2{config};
  EXPECT_EQ(engine2.name(), "2-bit MCAM");
}

TEST(TcamLshEngine, SeparatesEasyBlobsWithManyBits) {
  const Blobs blobs = make_blobs(20, 0.3, 17);
  TcamLshEngine engine{256, 23};
  engine.add(blobs.train, blobs.train_labels);
  EXPECT_GE(engine.accuracy(blobs.test, blobs.test_labels), 0.95);
}

TEST(TcamLshEngine, FewBitsLoseAccuracy) {
  const Blobs blobs = make_blobs(40, 1.2, 19);
  TcamLshEngine wide{512, 23};
  TcamLshEngine narrow{8, 23};
  wide.add(blobs.train, blobs.train_labels);
  narrow.add(blobs.train, blobs.train_labels);
  EXPECT_GT(wide.accuracy(blobs.test, blobs.test_labels),
            narrow.accuracy(blobs.test, blobs.test_labels));
}

TEST(TcamLshEngine, NameIncludesBits) {
  TcamLshEngine engine{64, 1};
  EXPECT_EQ(engine.name(), "TCAM+LSH (64b)");
}

TEST(TcamLshEngine, PredictBeforeFitThrows) {
  TcamLshEngine engine{64, 1};
  EXPECT_THROW((void)engine.query_one(std::vector<float>{1.0f}, 1), std::logic_error);
}

TEST(Engines, AccuracyValidatesSpans) {
  SoftwareNnEngine engine{"euclidean"};
  const Blobs blobs = make_blobs(5, 0.3, 21);
  engine.add(blobs.train, blobs.train_labels);
  const std::vector<int> short_labels{0};
  EXPECT_THROW((void)engine.accuracy(blobs.test, short_labels), std::invalid_argument);
}

// --- The ranking contract, row by row ---------------------------------------

/// One row scored on its own: a one-row RowStore slab through the scalar
/// reference kernel, then finalize.
double scalar_row_distance(MetricKind kind, std::span<const float> row,
                           std::span<const float> query) {
  kernels::RowStore one;
  (void)one.add(row);
  const float* slab = one.block(0);
  float acc[kernels::kBlockRows];
  kernels::scalar_ops().block_accum(kind, &slab, 1, query.data(), query.size(), acc);
  return kernels::finalize(kind, acc[0], kernels::query_norm(kind, query), one.norm(0));
}

/// `scored` (ascending id) stable-sorted by order_key of its distances, so
/// ties keep the lower id and NaN ranks last, cut at the k-convention.
std::vector<Neighbor> oracle_prefix(std::vector<Neighbor> scored, std::size_t k) {
  std::stable_sort(scored.begin(), scored.end(), [](const Neighbor& a, const Neighbor& b) {
    return order_key(a.distance) < order_key(b.distance);
  });
  if (!scored.empty()) scored.resize(std::clamp<std::size_t>(k, 1, scored.size()));
  return scored;
}

/// Raw bits, or NaN for NaN.
bool same_distance(double a, double b) {
  if (std::isnan(a)) return std::isnan(b);
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_answer(const std::vector<Neighbor>& got, const std::vector<Neighbor>& want,
                        const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index, want[i].index) << where << " rank " << i;
    EXPECT_EQ(got[i].label, want[i].label) << where << " rank " << i;
    EXPECT_TRUE(same_distance(got[i].distance, want[i].distance))
        << where << " rank " << i << ": " << got[i].distance << " vs " << want[i].distance;
  }
}

/// Ascending (order_key, id) order, NaN last: the order every answer has.
void expect_key_order(const std::vector<Neighbor>& got, const std::string& where) {
  for (std::size_t i = 1; i < got.size(); ++i) {
    const std::uint64_t prev = order_key(got[i - 1].distance);
    const std::uint64_t cur = order_key(got[i].distance);
    EXPECT_TRUE(prev < cur || (prev == cur && got[i - 1].index < got[i].index))
        << where << " rank " << i;
  }
}

/// Rows with exact distance ties: every third row takes values from
/// {-0.5, 0, 0.5} and every eleventh repeats its predecessor.
std::vector<std::vector<float>> tie_heavy_rows(std::size_t rows, std::size_t dim, Rng& rng) {
  std::vector<std::vector<float>> out;
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<float> v(dim);
    for (auto& x : v) {
      x = r % 3 == 0 ? 0.5f * static_cast<float>(static_cast<int>(rng.index(3)) - 1)
                     : static_cast<float>(rng.normal());
    }
    if (r % 11 == 10) v = out.back();
    out.push_back(std::move(v));
  }
  return out;
}

/// The k values every ranking must serve for `rows` live-or-not rows.
std::vector<std::size_t> k_axis(std::size_t rows) {
  return {0, 1, 10, rows - 1, rows, rows + 5};
}

/// Candidate lists for k_nearest_among: a dense one (reversed, with
/// duplicates, tombstones and unknown ids), a sparse one, and two short
/// ones that leave the largest index with far more blocks than ids, so
/// they take the sorted walk: one unsorted, and one ascending with a
/// duplicate and an unknown id, as a posting list might hold them.
std::vector<std::vector<std::size_t>> candidate_lists(std::size_t rows) {
  std::vector<std::size_t> dense;
  for (std::size_t id = rows; id-- > 0;) {
    if (id % 3 == 0) continue;
    dense.push_back(id);
    if (id % 2 == 0) dense.push_back(id);
  }
  dense.push_back(rows);
  dense.push_back(std::numeric_limits<std::size_t>::max());
  std::vector<std::size_t> sparse{rows - 1, rows / 2, rows + 7, rows / 2, 0, rows / 3};
  std::vector<std::size_t> short_unsorted{rows - 1, rows + 7, rows / 2};
  std::vector<std::size_t> short_ascending{rows / 3, rows / 2, rows / 2, rows + 7};
  return {dense, sparse, short_unsorted, short_ascending};
}

/// Scores every row on its own with `score` and lists the live ones of
/// `ids` (any order, duplicates and unknown ids allowed) ascending.
template <typename Score>
std::vector<Neighbor> score_live(const ExactNnIndex& index, std::span<const std::size_t> ids,
                                 const Score& score) {
  std::vector<std::size_t> live;
  for (const std::size_t id : ids) {
    if (id < index.total_rows() && index.row_valid(id)) live.push_back(id);
  }
  std::sort(live.begin(), live.end());
  live.erase(std::unique(live.begin(), live.end()), live.end());
  std::vector<Neighbor> scored;
  for (const std::size_t id : live) {
    scored.push_back(Neighbor{id, index.label_at(id), score(index.vector_at(id))});
  }
  return scored;
}

std::vector<std::size_t> all_ids(const ExactNnIndex& index) {
  std::vector<std::size_t> ids(index.total_rows());
  for (std::size_t id = 0; id < ids.size(); ++id) ids[id] = id;
  return ids;
}

TEST(ExactNnIndex, EveryPathMatchesThePerRowOracle) {
  ForceScalarGuard guard;
  Rng rng{2027};
  // The last row count spans two full kernel chunks and a third that ends
  // in a partial block.
  for (const std::size_t rows :
       {std::size_t{1}, std::size_t{7}, std::size_t{8}, std::size_t{9}, std::size_t{33},
        std::size_t{1024}, 2 * kernels::kMaxBlocksPerCall * kernels::kBlockRows + 43}) {
    for (const std::size_t dim : {5, 48}) {
      const std::vector<std::vector<float>> data = tie_heavy_rows(rows, dim, rng);
      std::vector<std::vector<float>> queries{tie_heavy_rows(1, dim, rng).front(),
                                              tie_heavy_rows(2, dim, rng).back()};
      for (const NamedKind& metric : kAllKinds) {
        ExactNnIndex fp32{metric.kind};
        ExactNnIndex int8{metric.kind, ExactNnIndex::RerankMode::kInt8};
        ExactNnIndex functor{distance::metric_by_name(metric.name)};
        for (ExactNnIndex* index : {&fp32, &int8, &functor}) {
          for (std::size_t r = 0; r < rows; ++r) (void)index->add(data[r], static_cast<int>(r % 4));
          for (std::size_t r = 3; r < rows; r += 7) ASSERT_TRUE(index->erase(r));
        }
        const distance::Metric metric_fn = distance::metric_by_name(metric.name);
        std::vector<std::vector<std::size_t>> id_lists = candidate_lists(rows);
        id_lists.insert(id_lists.begin(), all_ids(fp32));  // Index 0: the full scan.
        for (const auto& query : queries) {
          for (std::size_t list = 0; list < id_lists.size(); ++list) {
            const std::vector<Neighbor> kernel_scores =
                score_live(fp32, id_lists[list], [&](const std::vector<float>& row) {
                  return scalar_row_distance(metric.kind, row, query);
                });
            const std::vector<Neighbor> functor_scores =
                score_live(functor, id_lists[list], [&](const std::vector<float>& row) {
                  return metric_fn(query, row);
                });
            const auto ask = [&](const ExactNnIndex& index, std::size_t k) {
              return list == 0 ? index.k_nearest(query, k)
                               : index.k_nearest_among(query, id_lists[list], k);
            };
            for (const std::size_t k : k_axis(rows)) {
              const std::string where = std::string{metric.name} + " rows " +
                                        std::to_string(rows) + " dim " + std::to_string(dim) +
                                        " list " + std::to_string(list) + " k " +
                                        std::to_string(k);
              const std::vector<Neighbor> want = oracle_prefix(kernel_scores, k);
              for (const bool scalar : {false, true}) {
                kernels::set_force_scalar(scalar);
                const std::string mode = scalar ? " scalar" : " dispatched";
                expect_same_answer(ask(fp32, k), want, where + mode);
                // int8 membership is approximate by design; its order and
                // its FP32-exact scores are not.
                const std::vector<Neighbor> approx = ask(int8, k);
                EXPECT_EQ(approx.size(), want.size()) << where;
                expect_key_order(approx, where + mode + " int8");
                for (const Neighbor& n : approx) {
                  const auto exact = std::find_if(
                      kernel_scores.begin(), kernel_scores.end(),
                      [&n](const Neighbor& e) { return e.index == n.index; });
                  ASSERT_NE(exact, kernel_scores.end()) << where << " int8 id " << n.index;
                  EXPECT_TRUE(same_distance(n.distance, exact->distance))
                      << where << " int8 id " << n.index;
                }
              }
              kernels::set_force_scalar(false);
              expect_same_answer(ask(functor, k), oracle_prefix(functor_scores, k),
                                 where + " functor");
            }
          }
        }
      }
    }
  }
}

TEST(ExactNnIndex, NanDistancesRankLastOnEveryPath) {
  // One NaN feature in every fifth row (ids 1, 6, 11, ...): the kernels
  // and functors carry it into those rows' distances (linf skips a NaN
  // feature, as distance::linf does), and each ranking puts NaN after
  // every finite distance instead of scrambling the order around it.
  ForceScalarGuard guard;
  constexpr std::size_t kRows = 1024;
  constexpr std::size_t kDim = 48;
  Rng rng{600};
  std::vector<std::vector<float>> data(kRows, std::vector<float>(kDim));
  for (std::size_t r = 0; r < kRows; ++r) {
    for (auto& x : data[r]) x = static_cast<float>(rng.normal());
    if (r % 5 == 1) data[r][3] = std::numeric_limits<float>::quiet_NaN();
  }
  const std::vector<float> zero(kDim, 0.0f);
  const std::vector<float> nan_query(kDim, std::numeric_limits<float>::quiet_NaN());
  for (const NamedKind& metric : kAllKinds) {
    ExactNnIndex fp32{metric.kind};
    ExactNnIndex int8{metric.kind, ExactNnIndex::RerankMode::kInt8};
    ExactNnIndex functor{distance::metric_by_name(metric.name)};
    for (ExactNnIndex* index : {&fp32, &int8, &functor}) {
      for (std::size_t r = 0; r < kRows; ++r) (void)index->add(data[r], static_cast<int>(r));
      ASSERT_TRUE(index->erase(2));
    }
    const distance::Metric metric_fn = distance::metric_by_name(metric.name);
    const std::vector<std::size_t> ids = all_ids(fp32);
    for (const std::size_t k : {std::size_t{12}, kRows}) {
      const std::string where = std::string{metric.name} + " k " + std::to_string(k);
      const std::vector<Neighbor> want = oracle_prefix(
          score_live(fp32, ids, [&](const std::vector<float>& row) {
            return scalar_row_distance(metric.kind, row, zero);
          }),
          k);
      if (metric.kind == MetricKind::kEuclidean) {
        // The probe: the 12 nearest are finite rows, none of them NaN rows.
        for (std::size_t i = 0; i < std::min<std::size_t>(k, 12); ++i) {
          EXPECT_NE(want[i].index % 5, 1u) << where;
          EXPECT_FALSE(std::isnan(want[i].distance)) << where;
        }
      }
      for (const bool scalar : {false, true}) {
        kernels::set_force_scalar(scalar);
        const std::string mode = scalar ? " scalar" : " dispatched";
        expect_same_answer(fp32.k_nearest(zero, k), want, where + mode);
        expect_same_answer(fp32.k_nearest_among(zero, ids, k), want, where + mode + " among");
        for (const std::vector<Neighbor>& approx :
             {int8.k_nearest(zero, k), int8.k_nearest_among(zero, ids, k)}) {
          expect_key_order(approx, where + mode + " int8");
          for (const Neighbor& n : approx) {
            EXPECT_TRUE(same_distance(n.distance,
                                      scalar_row_distance(metric.kind, data[n.index], zero)))
                << where << mode << " int8 id " << n.index;
          }
        }
        // A NaN query ties every row: live ids 0..k-1, in id order.
        for (ExactNnIndex* index : {&fp32, &int8, &functor}) {
          const std::vector<Neighbor> got = index->k_nearest(nan_query, 10);
          ASSERT_EQ(got.size(), 10u) << where << mode;
          for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].index, i < 2 ? i : i + 1) << where << mode << " NaN query";
          }
        }
      }
      kernels::set_force_scalar(false);
      const std::vector<Neighbor> functor_want =
          oracle_prefix(score_live(functor, ids,
                                   [&](const std::vector<float>& row) {
                                     return metric_fn(zero, row);
                                   }),
                        k);
      expect_same_answer(functor.k_nearest(zero, k), functor_want, where + " functor");
      expect_same_answer(functor.k_nearest_among(zero, ids, k), functor_want,
                         where + " functor among");
    }
  }
}

TEST(Selection, AdmissibleLanesAreTheLanesOfferAdmits) {
  // A block offers only the lanes its mask holds, so the mask must never
  // drop a lane `offer` would admit: while the heap fills, or while its
  // worst value is NaN, it holds every lane. Once the worst is a number it
  // holds exactly the lanes `offer` admits, so a tie with the worst, a NaN
  // and an accumulator above the worst (+inf too) stay out.
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const std::vector<float> probes{1.0f, 2.0f, 3.0f, kNaN, kInf, -kInf, 0.0f, -0.0f,
                                  std::nextafter(2.0f, 0.0f), std::nextafter(2.0f, 3.0f),
                                  -1.0f};
  for (const float worst : {2.0f, 0.0f, -0.0f, kInf, kNaN}) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{4}}) {
      detail::Selection top{k};
      std::size_t next_id = 0;
      const auto check = [&](bool worst_is_number, const char* where) {
        for (std::size_t first = 0; first < probes.size(); ++first) {
          float acc[kernels::kBlockRows];
          for (std::size_t lane = 0; lane < kernels::kBlockRows; ++lane) {
            acc[lane] = probes[(first + lane) % probes.size()];
          }
          const unsigned mask = top.admissible_lanes(acc);
          for (std::size_t lane = 0; lane < kernels::kBlockRows; ++lane) {
            detail::Selection offered = top;
            offered.offer(acc[lane], next_id);
            const auto ranked = offered.ranked();
            const bool admitted =
                std::any_of(ranked.begin(), ranked.end(),
                            [&](const detail::Selection::Entry& e) { return e.id == next_id; });
            const bool in_mask = ((mask >> lane) & 1u) != 0;
            const bool want = !worst_is_number || admitted;
            EXPECT_EQ(in_mask, want)
                << where << " worst " << worst << " k " << k << " acc " << acc[lane];
          }
        }
      };
      for (std::size_t filled = 0; filled < k; ++filled) {
        check(false, "filling");
        top.offer(filled + 1 == k ? worst : -2.0f, next_id++);
      }
      check(!std::isnan(worst), "full");
    }
  }
}

TEST(ExactNnIndex, AnswerHoldsOnlyItsNeighbors) {
  // An answer outlives its query (caches, the e2e bench's kept replies),
  // so it must not carry capacity for every row it beat.
  Rng rng{17};
  constexpr std::size_t kRows = 1024;
  ExactNnIndex fp32{MetricKind::kEuclidean};
  ExactNnIndex int8{MetricKind::kEuclidean, ExactNnIndex::RerankMode::kInt8};
  ExactNnIndex functor{distance::metric_by_name("euclidean")};
  std::vector<float> row(16);
  for (std::size_t r = 0; r < kRows; ++r) {
    for (auto& x : row) x = static_cast<float>(rng.normal());
    for (ExactNnIndex* index : {&fp32, &int8, &functor}) (void)index->add(row, 0);
  }
  std::vector<std::size_t> ids;
  for (std::size_t c = 0; c < 640; ++c) ids.push_back(rng.index(kRows));
  for (const ExactNnIndex* index : {&fp32, &int8, &functor}) {
    for (const std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{10}}) {
      const std::size_t bound = std::max<std::size_t>(k, 1);
      EXPECT_LE(index->k_nearest(row, k).capacity(), bound) << index->kernel_name();
      EXPECT_LE(index->k_nearest_among(row, ids, k).capacity(), bound) << index->kernel_name();
    }
  }
}

}  // namespace
}  // namespace mcam::search
