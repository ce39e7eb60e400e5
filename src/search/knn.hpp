// Exact (brute-force) nearest-neighbor index over an arbitrary metric.
//
// This is the software reference implementation: the GPU baselines of the
// paper are exact linear-scan NN searches with cosine/Euclidean distance,
// and every CAM engine is validated against this index in the tests.
//
// Storage is a cache-blocked RowStore (distance/kernels/row_store.hpp).
// An index built from a `distance::MetricKind` ranks through the SIMD
// batch kernels (distance/kernels/kernels.hpp) - AVX2/NEON with a
// bit-exact scalar fallback - and can opt into the symmetric int8 rerank
// path; an index built from a type-erased `distance::Metric` functor
// keeps the scalar functor loop (the extension point for custom metrics).
//
// Every path streams its scores, in ascending id order, into one k-bounded
// selection (a heap of the k best so far), which orders by `order_key`
// with ties to the lower id, so NaN distances rank after +inf. Only the
// winners are finalized and become `Neighbor`s, and an answer holds
// capacity for its neighbors only.
#pragma once

#include "distance/kernels/row_store.hpp"
#include "distance/metrics.hpp"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace mcam::search {

namespace detail {
class Selection;  ///< The k-bounded selection every path feeds (selection.hpp).
}  // namespace detail

/// One retrieved neighbor.
struct Neighbor {
  std::size_t index = 0;  ///< Position in insertion order.
  int label = 0;          ///< Label stored with the vector.
  double distance = 0.0;  ///< Metric value to the query.
};

/// Linear-scan exact NN index with majority-vote classification.
class ExactNnIndex {
 public:
  /// How candidate distances are computed on the ranking paths.
  enum class RerankMode {
    kFp32,  ///< FP32 batch kernels (bit-exact across scalar/SIMD).
    kInt8,  ///< Symmetric int8 ordering + exact FP32 rescore of the final
            ///< top-k (euclidean / sq-euclidean / cosine; other metrics
            ///< fall back to kFp32). Opt-in approximate: the returned
            ///< scores are exact FP32, but membership beyond the rescored
            ///< pool follows the int8 ordering.
  };

  /// Custom-metric path: `metric` (smaller = nearer) is called per row in
  /// a scalar loop. Throws std::invalid_argument on a null metric.
  explicit ExactNnIndex(distance::Metric metric);

  /// Kernel path: distances come from the dispatched batch kernels.
  explicit ExactNnIndex(distance::MetricKind kind, RerankMode mode = RerankMode::kFp32);

  /// Adds one vector with its label; returns its index.
  std::size_t add(std::vector<float> vector, int label);

  /// Adds many rows.
  void add_all(std::span<const std::vector<float>> rows, std::span<const int> labels);

  /// Tombstones row `i`: it stops competing in nearest/k_nearest/classify
  /// and stops counting toward size(), but indices of other rows stay
  /// stable (mirrors the CAM arrays' validity latches). Returns false when
  /// already erased; throws std::out_of_range for a bad index.
  bool erase(std::size_t i);

  /// True when row `i` has not been tombstoned.
  [[nodiscard]] bool row_valid(std::size_t i) const;

  /// Number of physical rows ever added (tombstones included).
  [[nodiscard]] std::size_t total_rows() const noexcept { return store_.rows(); }

  /// Nearest stored vector to `query` (throws std::logic_error when empty).
  [[nodiscard]] Neighbor nearest(std::span<const float> query) const;

  /// The `k` nearest neighbors, sorted by increasing distance with a
  /// deterministic insertion-order tie-break (NaN distances last). `k`
  /// follows the one NnIndex k-convention (search/index.hpp): clamped to
  /// [1, size()], so k = 0 degenerates to 1-NN exactly as every
  /// `query_one` does. An empty index yields an empty vector (never
  /// throws).
  [[nodiscard]] std::vector<Neighbor> k_nearest(std::span<const float> query,
                                                std::size_t k) const;

  /// The `k` nearest among the candidate rows in `ids` only (the rerank
  /// primitive behind NnIndex::query_subset): same ordering, tie-break,
  /// and k-convention as `k_nearest`, but only the named rows have their
  /// distances evaluated - the ids are gathered into the storage blocks
  /// they touch, each with a mask of its candidate lanes, and the batch
  /// kernels score a chunk of up to kMaxBlocksPerCall such blocks per
  /// call, however far apart, as a full scan does. Ids may come in any
  /// order. Duplicate, tombstoned, and out-of-range ids are ignored
  /// (each unique live id is scored exactly once); an empty surviving
  /// candidate set yields an empty vector.
  /// When `live_candidates` is non-null it receives the number of unique
  /// live ids that competed (the query_subset telemetry, reported from
  /// the same single scan).
  [[nodiscard]] std::vector<Neighbor> k_nearest_among(
      std::span<const float> query, std::span<const std::size_t> ids, std::size_t k,
      std::size_t* live_candidates = nullptr) const;

  /// Majority vote among the `k` nearest (`k` clamped to [1, size()]);
  /// ties break to the smaller distance sum, then to the nearer neighbor.
  /// Throws std::logic_error when the index is empty.
  [[nodiscard]] int classify(std::span<const float> query, std::size_t k = 1) const;

  /// Number of live (non-tombstoned) vectors.
  [[nodiscard]] std::size_t size() const noexcept { return valid_rows_; }

  /// Stored vector `i` (for snapshots, tests and diagnostics; copied out
  /// of the blocked store - the floats are bit-identical to what was
  /// added).
  [[nodiscard]] std::vector<float> vector_at(std::size_t i) const;
  /// Stored label `i`.
  [[nodiscard]] int label_at(std::size_t i) const { return labels_.at(i); }

  /// Telemetry tag of the ranking path this index resolves to right now:
  /// "functor" for the custom-metric loop, otherwise the active kernel's
  /// name ("scalar" | "avx2" | "neon", with "+int8" when the int8
  /// ordering is in effect).
  [[nodiscard]] const char* kernel_name() const noexcept;

 private:
  /// One storage block a query touches and the mask of its competing lanes
  /// (bit l = row block * kBlockRows + l).
  struct LiveBlock {
    std::size_t block;
    std::uint8_t lanes;
  };
  using Selection = detail::Selection;

  /// Appends ascending id `id` to `blocks`, merging it into the last block
  /// when it shares that block (a duplicate id merges too).
  static void append_lane(std::vector<LiveBlock>& blocks, std::size_t id);

  [[nodiscard]] bool kernel_path() const noexcept { return kind_.has_value(); }
  [[nodiscard]] bool int8_path() const noexcept {
    return mode_ == RerankMode::kInt8 && kind_ &&
           distance::kernels::int8_supported(*kind_);
  }
  void check_query_dim(std::span<const float> query) const;
  /// The k-convention over `candidates` live lanes of `blocks` (ascending),
  /// scored by the path this index takes and selected into an answer.
  [[nodiscard]] std::vector<Neighbor> rank(std::span<const float> query,
                                           std::span<const LiveBlock> blocks,
                                           std::size_t candidates, std::size_t k) const;
  /// Feeds the raw FP32 kernel accumulators (finalized distances for
  /// cosine) of every lane of `blocks` into `top`.
  void score_fp32(std::span<const float> query, std::span<const LiveBlock> blocks,
                  Selection& top) const;
  /// Feeds functor-loop distances of every lane of `blocks` into `top`.
  void score_functor(std::span<const float> query, std::span<const LiveBlock> blocks,
                     Selection& top) const;
  /// Feeds the int8 distance reconstructions of every lane of `blocks`
  /// into `pool`.
  void score_int8(std::span<const float> query, std::span<const LiveBlock> blocks,
                  Selection& pool) const;

  std::optional<distance::MetricKind> kind_;
  RerankMode mode_ = RerankMode::kFp32;
  distance::Metric metric_;  ///< Set only on the functor path.
  distance::kernels::RowStore store_;
  std::vector<int> labels_;
  std::vector<std::uint8_t> live_lanes_;  ///< Per block: bit l set while its row l is live.
  std::size_t valid_rows_ = 0;
};

}  // namespace mcam::search
