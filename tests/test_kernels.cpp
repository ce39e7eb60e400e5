// The rerank kernel layer's identity contract (distance/kernels/):
//
//  - the scalar kernel is the bit-exact reference: the AVX2/NEON backends
//    must reproduce its per-lane accumulators bit for bit, on every
//    metric, odd dimensionality, and partial tail block;
//  - the int8 dot is exact integer arithmetic, identical across backends;
//  - every factory backend that ranks through the kernels (monolithic,
//    sharded, refine fine stages, with and without rerank=int8) returns
//    the same top-k whether the dispatcher picked SIMD or was pinned to
//    scalar (MCAM_FORCE_SCALAR / set_force_scalar).
#include "distance/kernels/kernels.hpp"
#include "distance/kernels/row_store.hpp"
#include "force_scalar_guard.hpp"
#include "search/engine.hpp"
#include "search/factory.hpp"
#include "serve/io.hpp"
#include "util/rng.hpp"

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

constexpr MetricKind kAllKinds[] = {MetricKind::kEuclidean, MetricKind::kSquaredEuclidean,
                                    MetricKind::kCosine, MetricKind::kManhattan,
                                    MetricKind::kLinf};

using testing_util::ForceScalarGuard;

std::vector<float> random_row(Rng& rng, std::size_t dim) {
  std::vector<float> row(dim);
  // Mixed-sign, mixed-magnitude values so abs/fma corner cases are hit.
  for (auto& x : row) x = static_cast<float>(rng.normal(0.0, 2.0));
  return row;
}

/// Labeled Gaussian blob fixture for the engine-level identity checks.
struct Blobs {
  std::vector<std::vector<float>> rows;
  std::vector<int> labels;
  std::vector<std::vector<float>> queries;
};

Blobs make_blobs(std::size_t rows, std::size_t dim, std::size_t queries,
                 std::uint64_t seed) {
  Blobs blobs;
  Rng rng{seed};
  for (std::size_t r = 0; r < rows; ++r) {
    const int cls = static_cast<int>(r % 3);
    std::vector<float> v(dim);
    for (std::size_t d = 0; d < dim; ++d) {
      v[d] = static_cast<float>(rng.normal(1.5 * cls, 1.0));
    }
    blobs.rows.push_back(std::move(v));
    blobs.labels.push_back(cls);
  }
  for (std::size_t q = 0; q < queries; ++q) {
    std::vector<float> v(dim);
    for (std::size_t d = 0; d < dim; ++d) {
      v[d] = static_cast<float>(rng.normal(1.5 * (q % 3), 1.2));
    }
    blobs.queries.push_back(std::move(v));
  }
  return blobs;
}

/// Raw bits, except that any NaN matches any NaN: every ranking treats
/// NaNs alike, and libm's fma need not keep a NaN's payload.
bool same_accumulator(float a, float b) {
  if (std::isnan(a)) return std::isnan(b);
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

TEST(Kernels, SimdAccumulatorsAreBitIdenticalToScalar) {
  const kernels::KernelOps& simd = kernels::active_ops();
  if (simd.block_accum == kernels::scalar_ops().block_accum) {
    GTEST_SKIP() << "no SIMD backend on this host";
  }
  Rng rng{101};
  // Odd dims exercise every unaligned tail; the row count leaves a partial
  // (zero-padded) tail block. The store holds more blocks than one call
  // takes, and a block count of 1 mod 21, so a call of any count at
  // stride 1, 3 or 7 draws distinct blocks, across the AVX2 backend's
  // groups of eight and the end of the store. One row carries a NaN and
  // one an infinity, so the NaN handling of every metric is pinned too.
  constexpr std::size_t kBlocks = (kernels::kMaxBlocksPerCall / 21 + 1) * 21 + 1;
  for (const std::size_t dim : {std::size_t{1}, std::size_t{7}, std::size_t{48},
                                std::size_t{65}}) {
    kernels::RowStore store;
    const std::size_t rows = (kBlocks - 1) * kernels::kBlockRows + 3;
    for (std::size_t r = 0; r < rows; ++r) {
      std::vector<float> row = random_row(rng, dim);
      if (r == 5) row[dim / 2] = std::numeric_limits<float>::quiet_NaN();
      if (r == 20) row[0] = std::numeric_limits<float>::infinity();
      (void)store.add(row);
    }
    const std::size_t blocks = store.num_blocks();
    ASSERT_EQ(blocks, kBlocks);
    const std::vector<float> query = random_row(rng, dim);
    for (const MetricKind kind : kAllKinds) {
      // The scalar reference, one slab per call.
      std::vector<float> scalar_acc(blocks * kernels::kBlockRows);
      for (std::size_t b = 0; b < blocks; ++b) {
        const float* slab = store.block(b);
        kernels::scalar_ops().block_accum(kind, &slab, 1, query.data(), dim,
                                          scalar_acc.data() + b * kernels::kBlockRows);
      }
      // Each call takes `count` slabs `stride` blocks apart, wrapping, so
      // calls mix adjacent, distant and tail slabs.
      for (std::size_t count = 1; count <= kernels::kMaxBlocksPerCall; ++count) {
        for (const std::size_t stride : {std::size_t{1}, std::size_t{3}, std::size_t{7}}) {
          for (std::size_t first = 0; first < blocks; ++first) {
            const float* slabs[kernels::kMaxBlocksPerCall];
            std::size_t ids[kernels::kMaxBlocksPerCall];
            for (std::size_t s = 0; s < count; ++s) {
              ids[s] = (first + s * stride) % blocks;
              slabs[s] = store.block(ids[s]);
            }
            alignas(32) float simd_acc[kernels::kMaxBlocksPerCall * kernels::kBlockRows];
            simd.block_accum(kind, slabs, count, query.data(), dim, simd_acc);
            for (std::size_t s = 0; s < count; ++s) {
              for (std::size_t lane = 0; lane < kernels::kBlockRows; ++lane) {
                const float want = scalar_acc[ids[s] * kernels::kBlockRows + lane];
                const float got = simd_acc[s * kernels::kBlockRows + lane];
                EXPECT_TRUE(same_accumulator(want, got))
                    << "kind " << static_cast<int>(kind) << " dim " << dim << " count "
                    << count << " slab " << s << " (block " << ids[s] << ") lane " << lane
                    << ": scalar " << want << " simd " << got;
              }
            }
          }
        }
      }
    }
  }
}

TEST(Kernels, SimdInt8DotMatchesScalar) {
  const kernels::KernelOps& simd = kernels::active_ops();
  if (simd.dot_i8 == kernels::scalar_ops().dot_i8) {
    GTEST_SKIP() << "no SIMD backend on this host";
  }
  Rng rng{103};
  for (const std::size_t n : {kernels::kCodeAlign, 3 * kernels::kCodeAlign}) {
    std::vector<std::int8_t> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = static_cast<std::int8_t>(static_cast<int>(rng.normal(0.0, 60.0)) % 127);
      b[i] = static_cast<std::int8_t>(static_cast<int>(rng.normal(0.0, 60.0)) % 127);
    }
    EXPECT_EQ(kernels::scalar_ops().dot_i8(a.data(), b.data(), n),
              simd.dot_i8(a.data(), b.data(), n));
  }
}

TEST(Kernels, ForceScalarPinsDispatch) {
  ForceScalarGuard guard;
  kernels::set_force_scalar(true);
  EXPECT_TRUE(kernels::force_scalar());
  EXPECT_STREQ(kernels::active_ops().name, "scalar");
  kernels::set_force_scalar(false);
  EXPECT_FALSE(kernels::force_scalar());
}

TEST(Kernels, FinalizeMatchesMetricSemantics) {
  EXPECT_DOUBLE_EQ(kernels::finalize(MetricKind::kEuclidean, 9.0f, 0.0, 0.0), 3.0);
  EXPECT_DOUBLE_EQ(kernels::finalize(MetricKind::kSquaredEuclidean, 9.0f, 0.0, 0.0), 9.0);
  EXPECT_DOUBLE_EQ(kernels::finalize(MetricKind::kManhattan, 2.5f, 0.0, 0.0), 2.5);
  EXPECT_DOUBLE_EQ(kernels::finalize(MetricKind::kLinf, 2.5f, 0.0, 0.0), 2.5);
  // Cosine: 1 - acc / (|q||r|), 1.0 when either norm is zero.
  EXPECT_DOUBLE_EQ(kernels::finalize(MetricKind::kCosine, 6.0f, 2.0, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(kernels::finalize(MetricKind::kCosine, 6.0f, 0.0, 3.0), 1.0);
}

TEST(RowStore, PreservesRowBytesExactly) {
  Rng rng{105};
  kernels::RowStore store;
  std::vector<std::vector<float>> rows;
  for (std::size_t r = 0; r < kernels::kBlockRows + 5; ++r) {
    rows.push_back(random_row(rng, 7));
    EXPECT_EQ(store.add(rows.back()), r);
  }
  EXPECT_EQ(store.rows(), rows.size());
  EXPECT_EQ(store.dim(), 7u);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const std::vector<float> copy = store.row_copy(r);
    ASSERT_EQ(copy.size(), rows[r].size());
    for (std::size_t d = 0; d < copy.size(); ++d) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(copy[d]),
                std::bit_cast<std::uint32_t>(rows[r][d]))
          << "row " << r << " dim " << d;
      EXPECT_EQ(store.value(r, d), rows[r][d]);
    }
  }
  EXPECT_THROW((void)store.add(std::vector<float>(3)), std::invalid_argument);
  EXPECT_THROW((void)store.row_copy(rows.size()), std::out_of_range);
}

TEST(RowStore, Int8CodesFollowTheBlockScale) {
  kernels::RowStore store{true};
  // Second row widens the block's max-abs, forcing a requantize of row 0.
  (void)store.add(std::vector<float>{1.0f, -0.5f});
  (void)store.add(std::vector<float>{10.0f, 2.0f});
  ASSERT_EQ(store.padded_dim(), kernels::kCodeAlign);
  const float scale = store.block_scale(0);
  EXPECT_FLOAT_EQ(scale, 10.0f / 127.0f);
  for (std::size_t r = 0; r < store.rows(); ++r) {
    const std::int8_t* codes = store.row_codes(r);
    for (std::size_t d = 0; d < store.dim(); ++d) {
      const long expected = std::lrintf(store.value(r, d) / scale);
      EXPECT_EQ(static_cast<long>(codes[d]), expected) << "row " << r << " dim " << d;
    }
    // Zero padding beyond dim contributes nothing to any dot product.
    for (std::size_t d = store.dim(); d < store.padded_dim(); ++d) {
      EXPECT_EQ(codes[d], 0) << "row " << r << " pad " << d;
    }
  }
}

TEST(MetricNames, AliasesResolveAndUnknownsListKnownNames) {
  EXPECT_EQ(distance::metric_kind_by_name("l2"), MetricKind::kEuclidean);
  EXPECT_EQ(distance::metric_kind_by_name("euclidean"), MetricKind::kEuclidean);
  EXPECT_EQ(distance::metric_kind_by_name("l1"), MetricKind::kManhattan);
  EXPECT_EQ(distance::metric_kind_by_name("sq-euclidean"), MetricKind::kSquaredEuclidean);
  EXPECT_EQ(distance::metric_kind_by_name("nope"), std::nullopt);
  // Aliases serve the functor surface too.
  const std::vector<float> a{0.0f, 0.0f}, b{3.0f, 4.0f};
  EXPECT_DOUBLE_EQ(distance::metric_by_name("l2")(a, b), 5.0);
  EXPECT_DOUBLE_EQ(distance::metric_by_name("l1")(a, b), 7.0);
  try {
    (void)distance::metric_by_name("chebyshev");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'chebyshev'"), std::string::npos) << what;
    EXPECT_NE(what.find("known: cosine, euclidean, l1, l2, linf, manhattan, sq-euclidean"),
              std::string::npos)
        << what;
  }
}

TEST(ExactNnIndexKernels, KNearestAmongIgnoresDuplicateAndStaleIds) {
  // Regression (satellite contract): repeated ids must not produce
  // repeated neighbors, and tombstoned / never-added ids must not count
  // as candidates - on the kernel path, the int8 path, and the functor
  // path alike.
  const Blobs blobs = make_blobs(20, 6, 1, 107);
  const auto check = [&](ExactNnIndex& index) {
    index.add_all(blobs.rows, blobs.labels);
    ASSERT_TRUE(index.erase(3));
    const std::vector<std::size_t> ids{5, 3, 5, 5, 2, 999, 3, 7, 2, 7};
    std::size_t live = 0;
    const std::vector<Neighbor> top =
        index.k_nearest_among(blobs.queries[0], ids, 10, &live);
    EXPECT_EQ(live, 3u);  // Unique live survivors: {2, 5, 7}.
    ASSERT_EQ(top.size(), live);
    std::vector<std::size_t> seen;
    for (const Neighbor& n : top) seen.push_back(n.index);
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, (std::vector<std::size_t>{2, 5, 7}));
    // Ascending distances with the deterministic tie-break.
    for (std::size_t i = 1; i < top.size(); ++i) {
      EXPECT_GE(top[i].distance, top[i - 1].distance);
    }
  };
  ExactNnIndex fp32{MetricKind::kEuclidean};
  check(fp32);
  ExactNnIndex int8{MetricKind::kEuclidean, ExactNnIndex::RerankMode::kInt8};
  check(int8);
  ExactNnIndex functor{distance::metric_by_name("euclidean")};
  check(functor);
}

TEST(ExactNnIndexKernels, KernelPathRejectsQueryDimensionMismatch) {
  ExactNnIndex index{MetricKind::kEuclidean};
  index.add({1.0f, 2.0f}, 0);
  EXPECT_THROW((void)index.k_nearest(std::vector<float>{1.0f}, 1), std::invalid_argument);
}

TEST(ExactNnIndexKernels, Int8RescoredScoresAreExactFp32) {
  // The int8 path nominates by quantized ordering but must return *exact*
  // FP32 distances for whatever it returns.
  const Blobs blobs = make_blobs(64, 16, 4, 109);
  ExactNnIndex fp32{MetricKind::kEuclidean};
  ExactNnIndex int8{MetricKind::kEuclidean, ExactNnIndex::RerankMode::kInt8};
  fp32.add_all(blobs.rows, blobs.labels);
  int8.add_all(blobs.rows, blobs.labels);
  for (const auto& q : blobs.queries) {
    const std::vector<Neighbor> exact = fp32.k_nearest(q, fp32.size());
    const std::vector<Neighbor> approx = int8.k_nearest(q, 5);
    for (const Neighbor& n : approx) {
      bool found = false;
      for (const Neighbor& e : exact) {
        if (e.index == n.index) {
          EXPECT_DOUBLE_EQ(e.distance, n.distance) << "id " << n.index;
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found);
    }
  }
}

TEST(ExactNnIndexKernels, KernelNameReflectsThePath) {
  ForceScalarGuard guard;
  ExactNnIndex functor{distance::metric_by_name("euclidean")};
  EXPECT_STREQ(functor.kernel_name(), "functor");
  ExactNnIndex fp32{MetricKind::kEuclidean};
  ExactNnIndex int8{MetricKind::kEuclidean, ExactNnIndex::RerankMode::kInt8};
  ExactNnIndex linf_int8{MetricKind::kLinf, ExactNnIndex::RerankMode::kInt8};
  kernels::set_force_scalar(true);
  EXPECT_STREQ(fp32.kernel_name(), "scalar");
  EXPECT_STREQ(int8.kernel_name(), "scalar+int8");
  // Unsupported metrics silently stay FP32 under rerank=int8.
  EXPECT_STREQ(linf_int8.kernel_name(), "scalar");
  kernels::set_force_scalar(false);
  EXPECT_STREQ(fp32.kernel_name(), kernels::active_ops().name);
}

/// Queries `spec` twice - SIMD dispatch vs pinned scalar - and demands the
/// answers be bit-identical (indices, labels, and distances). int8 specs
/// qualify too: integer dots are exact, and the final scores come from the
/// bit-exact FP32 kernels.
void expect_backend_scalar_identity(const std::string& spec, const Blobs& blobs) {
  ForceScalarGuard guard;
  EngineConfig config;
  config.num_features = blobs.rows.front().size();
  const auto run = [&] {
    std::unique_ptr<NnIndex> engine = make_index(spec, config);
    engine->add(blobs.rows, blobs.labels);
    std::vector<QueryResult> results;
    for (const auto& q : blobs.queries) results.push_back(engine->query_one(q, 10));
    // And through the rerank primitive, over an id subset with noise.
    std::vector<std::size_t> ids;
    for (std::size_t i = 0; i < blobs.rows.size(); i += 2) ids.push_back(i);
    ids.push_back(0);  // Duplicate.
    for (const auto& q : blobs.queries) results.push_back(engine->query_subset(q, ids, 5));
    return results;
  };
  kernels::set_force_scalar(false);
  const std::vector<QueryResult> dispatched = run();
  kernels::set_force_scalar(true);
  const std::vector<QueryResult> scalar = run();
  ASSERT_EQ(dispatched.size(), scalar.size());
  for (std::size_t i = 0; i < dispatched.size(); ++i) {
    EXPECT_EQ(dispatched[i].label, scalar[i].label) << spec << " query " << i;
    ASSERT_EQ(dispatched[i].neighbors.size(), scalar[i].neighbors.size()) << spec;
    for (std::size_t n = 0; n < dispatched[i].neighbors.size(); ++n) {
      EXPECT_EQ(dispatched[i].neighbors[n].index, scalar[i].neighbors[n].index)
          << spec << " query " << i << " rank " << n;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(dispatched[i].neighbors[n].distance),
                std::bit_cast<std::uint64_t>(scalar[i].neighbors[n].distance))
          << spec << " query " << i << " rank " << n;
    }
  }
}

TEST(BackendIdentity, EveryKernelBackendMatchesScalarReference) {
  const Blobs blobs = make_blobs(48, 17, 4, 111);  // Odd dim: unaligned tails.
  for (const std::string spec : {
           "euclidean", "cosine", "manhattan", "linf",
           "euclidean:rerank=int8", "cosine:rerank=int8",
           "sharded-euclidean:bank_rows=16",
           "sharded-cosine:bank_rows=16,rerank=int8",
           "refine:exhaustive=1,fine=euclidean",
           "refine:exhaustive=1,fine=euclidean:rerank=int8",
       }) {
    SCOPED_TRACE(spec);
    expect_backend_scalar_identity(spec, blobs);
  }
}

TEST(SoftwareEngine, RerankSpecKeyAndTelemetry) {
  const Blobs blobs = make_blobs(24, 8, 1, 113);
  SoftwareNnEngine int8{"euclidean", "int8"};
  EXPECT_EQ(int8.name(), "euclidean (int8 rerank)");
  // Unsupported metric + int8 falls back to FP32, and says so.
  SoftwareNnEngine linf{"linf", "int8"};
  EXPECT_EQ(linf.name(), "linf (FP32)");
  EXPECT_THROW((SoftwareNnEngine{"euclidean", "fp16"}), std::invalid_argument);
  EXPECT_THROW((void)make_index("euclidean:rerank=fp16"), std::invalid_argument);

  std::unique_ptr<NnIndex> engine = make_index("euclidean:rerank=int8");
  engine->add(blobs.rows, blobs.labels);
  const QueryResult result = engine->query_one(blobs.queries[0], 3);
  EXPECT_STREQ(result.telemetry.kernel, int8.kernel_name());
  EXPECT_NE(std::string{result.telemetry.kernel}.find("int8"), std::string::npos);

  std::unique_ptr<NnIndex> sharded = make_index("sharded-euclidean:bank_rows=8,rerank=int8");
  sharded->add(blobs.rows, blobs.labels);
  EXPECT_STREQ(sharded->query_one(blobs.queries[0], 3).telemetry.kernel,
               result.telemetry.kernel);
}

TEST(SoftwareEngine, SnapshotPayloadIsIdenticalAcrossRerankModes) {
  // The RowStore preserves exact row bytes and the engine payload format
  // is unchanged, so fp32 and int8 engines over the same adds serialize
  // byte-identically (the rerank mode lives in the engine *config*, not
  // the payload) - and restoring an int8 engine reproduces its answers.
  const Blobs blobs = make_blobs(20, 6, 2, 115);
  SoftwareNnEngine fp32{"euclidean"};
  SoftwareNnEngine int8{"euclidean", "int8"};
  fp32.add(blobs.rows, blobs.labels);
  int8.add(blobs.rows, blobs.labels);
  ASSERT_TRUE(fp32.erase(4));
  ASSERT_TRUE(int8.erase(4));
  serve::io::Writer fp32_bytes, int8_bytes;
  fp32.save_state(fp32_bytes);
  int8.save_state(int8_bytes);
  EXPECT_EQ(fp32_bytes.buffer(), int8_bytes.buffer());

  SoftwareNnEngine restored{"euclidean", "int8"};
  serve::io::Reader reader{int8_bytes.buffer()};
  restored.load_state(reader);
  EXPECT_EQ(restored.size(), int8.size());
  for (const auto& q : blobs.queries) {
    const QueryResult a = int8.query_one(q, 5);
    const QueryResult b = restored.query_one(q, 5);
    ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
    for (std::size_t n = 0; n < a.neighbors.size(); ++n) {
      EXPECT_EQ(a.neighbors[n].index, b.neighbors[n].index);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.neighbors[n].distance),
                std::bit_cast<std::uint64_t>(b.neighbors[n].distance));
    }
  }
}

}  // namespace
}  // namespace mcam::search
