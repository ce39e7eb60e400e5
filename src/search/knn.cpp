#include "search/knn.hpp"

#include "distance/kernels/kernels.hpp"
#include "search/index.hpp"
#include "search/selection.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace mcam::search {

namespace kernels = distance::kernels;

ExactNnIndex::ExactNnIndex(distance::Metric metric)
    : metric_(std::move(metric)), store_(false) {
  if (!metric_) throw std::invalid_argument{"ExactNnIndex: null metric"};
}

ExactNnIndex::ExactNnIndex(distance::MetricKind kind, RerankMode mode)
    : kind_(kind),
      mode_(mode),
      store_(mode == RerankMode::kInt8 && kernels::int8_supported(kind)) {}

namespace {

static_assert(kernels::kBlockRows <= 8, "a block's live lanes fit one byte");

/// k_nearest_among ORs its ids into per-block masks while the index has at
/// most this many blocks per id, and sorts the ids beyond that. Measured
/// on random ids of a euclidean 48-feature index (AVX2, x86-64 Xeon), the
/// two cost the same at about 12 blocks per id at 512 blocks, 16 to 24 at
/// 2048 and 24 at 8192: the sort's share grows with the id count. 24 fits
/// the large indexes, where a wrong pick costs the most time; at 32 blocks
/// per id the sort wins at every size (BM_SubsetRerankSparse times it).
constexpr std::size_t kMaskBlocksPerId = 24;

constexpr std::uint8_t lane_bit(std::size_t i) noexcept {
  return static_cast<std::uint8_t>(1u << (i % kernels::kBlockRows));
}

}  // namespace

std::size_t ExactNnIndex::add(std::vector<float> vector, int label) {
  if (store_.rows() > 0 && vector.size() != store_.dim()) {
    throw std::invalid_argument{"ExactNnIndex::add: dimension mismatch"};
  }
  const std::size_t i = store_.add(vector);
  labels_.push_back(label);
  if (i % kernels::kBlockRows == 0) live_lanes_.push_back(0);
  live_lanes_[i / kernels::kBlockRows] |= lane_bit(i);
  ++valid_rows_;
  return i;
}

bool ExactNnIndex::erase(std::size_t i) {
  if (i >= store_.rows()) throw std::out_of_range{"ExactNnIndex::erase: bad index"};
  if (!row_valid(i)) return false;
  live_lanes_[i / kernels::kBlockRows] &= static_cast<std::uint8_t>(~lane_bit(i));
  --valid_rows_;
  return true;
}

bool ExactNnIndex::row_valid(std::size_t i) const {
  if (i >= store_.rows()) throw std::out_of_range{"ExactNnIndex::row_valid: bad index"};
  return (live_lanes_[i / kernels::kBlockRows] & lane_bit(i)) != 0;
}

void ExactNnIndex::add_all(std::span<const std::vector<float>> rows,
                           std::span<const int> labels) {
  if (rows.size() != labels.size()) {
    throw std::invalid_argument{"ExactNnIndex::add_all: rows/labels mismatch"};
  }
  // Validate the whole batch first so a bad row is all-or-nothing instead
  // of leaving a partially committed batch behind.
  const std::size_t width = store_.rows() == 0
                                ? (rows.empty() ? 0 : rows.front().size())
                                : store_.dim();
  for (const auto& row : rows) {
    if (row.size() != width) {
      throw std::invalid_argument{"ExactNnIndex::add_all: dimension mismatch"};
    }
  }
  for (std::size_t i = 0; i < rows.size(); ++i) add(rows[i], labels[i]);
}

std::vector<float> ExactNnIndex::vector_at(std::size_t i) const {
  return store_.row_copy(i);
}

const char* ExactNnIndex::kernel_name() const noexcept {
  if (!kernel_path()) return "functor";
  const kernels::KernelOps& ops = kernels::active_ops();
  return int8_path() ? ops.int8_name : ops.name;
}

void ExactNnIndex::check_query_dim(std::span<const float> query) const {
  if (store_.rows() > 0 && query.size() != store_.dim()) {
    throw std::invalid_argument{"ExactNnIndex: query dimension mismatch"};
  }
}

Neighbor ExactNnIndex::nearest(std::span<const float> query) const {
  if (valid_rows_ == 0) throw std::logic_error{"ExactNnIndex::nearest: empty index"};
  const std::vector<Neighbor> top = k_nearest(query, 1);
  return top.front();
}

void ExactNnIndex::append_lane(std::vector<LiveBlock>& blocks, std::size_t id) {
  const std::size_t b = id / kernels::kBlockRows;
  if (blocks.empty() || blocks.back().block != b) blocks.push_back({b, 0});
  blocks.back().lanes |= lane_bit(id);
}

void ExactNnIndex::score_fp32(std::span<const float> query,
                              std::span<const LiveBlock> blocks, Selection& top) const {
  // Up to kMaxBlocksPerCall touched blocks share one kernel call, however
  // far apart; a full scan streams every live block with zero waste.
  // Metrics whose finalize is monotone in the accumulator rank on it: a
  // block offers only its live lanes that beat the selection's worst, and
  // only the winners are finalized (in rank()). Cosine finalizes and
  // offers every live lane.
  const kernels::KernelOps& ops = kernels::active_ops();
  const distance::MetricKind kind = *kind_;
  const bool on_accumulator = kernels::ranks_on_accumulator(kind);
  const double qn = kernels::query_norm(kind, query);
  const float* slabs[kernels::kMaxBlocksPerCall];
  alignas(32) float acc[kernels::kMaxBlocksPerCall * kernels::kBlockRows];
  for (std::size_t pos = 0; pos < blocks.size();) {
    const std::size_t count = std::min(kernels::kMaxBlocksPerCall, blocks.size() - pos);
    for (std::size_t s = 0; s < count; ++s) slabs[s] = store_.block(blocks[pos + s].block);
    ops.block_accum(kind, slabs, count, query.data(), store_.dim(), acc);
    for (std::size_t s = 0; s < count; ++s, ++pos) {
      const float* lane_acc = acc + s * kernels::kBlockRows;
      unsigned lanes = blocks[pos].lanes;
      if (on_accumulator) lanes &= top.admissible_lanes(lane_acc);
      const std::size_t first = blocks[pos].block * kernels::kBlockRows;
      for (; lanes != 0; lanes &= lanes - 1) {
        const auto lane = static_cast<std::size_t>(std::countr_zero(lanes));
        const std::size_t id = first + lane;
        top.offer(on_accumulator ? static_cast<double>(lane_acc[lane])
                                 : kernels::finalize(kind, lane_acc[lane], qn, store_.norm(id)),
                  id);
      }
    }
  }
}

void ExactNnIndex::score_functor(std::span<const float> query,
                                 std::span<const LiveBlock> blocks, Selection& top) const {
  std::vector<float> row(store_.dim());
  for (const LiveBlock& block : blocks) {
    for (unsigned lanes = block.lanes; lanes != 0; lanes &= lanes - 1) {
      const std::size_t id =
          block.block * kernels::kBlockRows + static_cast<std::size_t>(std::countr_zero(lanes));
      store_.copy_row(id, row);
      top.offer(metric_(query, row), id);
    }
  }
}

void ExactNnIndex::score_int8(std::span<const float> query,
                              std::span<const LiveBlock> blocks, Selection& pool) const {
  // The symmetric int8 reconstruction of each distance. The i32 dot is
  // exact, so this ordering is identical across scalar and SIMD backends;
  // only quantization error separates it from FP32.
  const kernels::KernelOps& ops = kernels::active_ops();
  const kernels::QueryCodes qc = kernels::quantize_query(query);
  const double q_sq = kernels::query_sq_norm(query);
  const bool cosine = *kind_ == distance::MetricKind::kCosine;
  const double qn = cosine ? std::sqrt(q_sq) : 0.0;
  for (const LiveBlock& block : blocks) {
    const double s =
        static_cast<double>(qc.scale) * static_cast<double>(store_.block_scale(block.block));
    for (unsigned lanes = block.lanes; lanes != 0; lanes &= lanes - 1) {
      const std::size_t id =
          block.block * kernels::kBlockRows + static_cast<std::size_t>(std::countr_zero(lanes));
      const double dot = static_cast<double>(
          ops.dot_i8(qc.codes.data(), store_.row_codes(id), store_.padded_dim()));
      if (cosine) {
        const double rn = store_.norm(id);
        pool.offer((qn <= 0.0 || rn <= 0.0) ? 1.0 : 1.0 - s * dot / (qn * rn), id);
      } else {
        // ||r - q||^2 ~= ||r||^2 + ||q||^2 - 2 s_q s_b <r_i8, q_i8>; the
        // missing sqrt for kEuclidean cannot change the nomination order.
        pool.offer(store_.sq_norm(id) + q_sq - 2.0 * s * dot, id);
      }
    }
  }
}

std::vector<Neighbor> ExactNnIndex::rank(std::span<const float> query,
                                         std::span<const LiveBlock> blocks,
                                         std::size_t candidates, std::size_t k) const {
  // The one NnIndex k-convention: k = 0 -> 1-NN, k > candidates -> all.
  if (candidates == 0) return {};
  const std::size_t k_eff = std::clamp<std::size_t>(k, 1, candidates);
  Selection top{k_eff};
  if (!kernel_path()) {
    score_functor(query, blocks, top);
  } else {
    check_query_dim(query);
    if (int8_path()) {
      // The int8 ordering nominates k + slack rows; those are rescored
      // with the exact FP32 kernels, so the returned scores are exact FP32
      // and only membership beyond the pool is approximate.
      Selection pool{std::min(candidates, k_eff + kernels::kInt8RescoreSlack)};
      score_int8(query, blocks, pool);
      std::vector<std::size_t> pool_ids;
      for (const Selection::Entry& entry : pool.ranked()) pool_ids.push_back(entry.id);
      std::sort(pool_ids.begin(), pool_ids.end());
      std::vector<LiveBlock> pool_blocks;
      for (const std::size_t id : pool_ids) append_lane(pool_blocks, id);
      score_fp32(query, pool_blocks, top);
    } else {
      score_fp32(query, blocks, top);
    }
  }
  // Finalize the winners only: a rank value is the distance itself on the
  // functor path and for cosine, the raw accumulator otherwise.
  const bool on_accumulator = kernel_path() && kernels::ranks_on_accumulator(*kind_);
  const std::span<const Selection::Entry> winners = top.ranked();
  std::vector<Neighbor> out;
  out.reserve(winners.size());
  for (const Selection::Entry& entry : winners) {
    out.push_back(Neighbor{
        entry.id, labels_[entry.id],
        on_accumulator ? kernels::finalize(*kind_, static_cast<float>(entry.value), 0.0, 0.0)
                       : entry.value});
  }
  return out;
}

std::vector<Neighbor> ExactNnIndex::k_nearest(std::span<const float> query,
                                              std::size_t k) const {
  // Clamp instead of throwing: k follows the NnIndex k-convention
  // (k = 0 -> 1-NN, k > size() -> everything) and an empty index returns
  // no neighbors. Tombstoned rows never compete.
  std::vector<LiveBlock> blocks;
  blocks.reserve(live_lanes_.size());
  for (std::size_t b = 0; b < live_lanes_.size(); ++b) {
    if (live_lanes_[b] != 0) blocks.push_back({b, live_lanes_[b]});
  }
  return rank(query, blocks, valid_rows_, k);
}

std::vector<Neighbor> ExactNnIndex::k_nearest_among(std::span<const float> query,
                                                    std::span<const std::size_t> ids,
                                                    std::size_t k,
                                                    std::size_t* live_candidates) const {
  // Gather the candidates into the blocks they touch, ascending, each
  // with its live candidate lanes; duplicates, tombstones and unknown ids
  // drop out here. Two strategies, same output:
  //   * unless the index has far more blocks than ids, OR a lane bit into
  //     a per-block mask and read the masks back in one pass -
  //     O(ids + blocks), cheaper than sorting a few hundred ids;
  //   * against far more blocks, sort the ids themselves, so the work
  //     follows the candidate set, never the index.
  std::vector<LiveBlock> blocks;
  if (live_lanes_.size() <= kMaskBlocksPerId * ids.size()) {
    std::vector<std::uint8_t> wanted(live_lanes_.size(), 0);
    for (const std::size_t id : ids) {
      if (id < store_.rows()) wanted[id / kernels::kBlockRows] |= lane_bit(id);
    }
    for (std::size_t b = 0; b < wanted.size(); ++b) {
      const auto lanes = static_cast<std::uint8_t>(wanted[b] & live_lanes_[b]);
      if (lanes != 0) blocks.push_back({b, lanes});
    }
  } else {
    std::vector<std::size_t> sorted(ids.begin(), ids.end());
    std::sort(sorted.begin(), sorted.end());
    for (const std::size_t id : sorted) {
      if (id < store_.rows() && row_valid(id)) append_lane(blocks, id);
    }
  }
  std::size_t candidates = 0;
  for (const LiveBlock& block : blocks) {
    candidates += static_cast<std::size_t>(std::popcount(block.lanes));
  }
  if (live_candidates != nullptr) *live_candidates = candidates;
  return rank(query, blocks, candidates, k);
}

int ExactNnIndex::classify(std::span<const float> query, std::size_t k) const {
  if (valid_rows_ == 0) throw std::logic_error{"ExactNnIndex::classify: empty index"};
  // k_nearest applies the k-convention (k = 0 -> 1-NN) itself. Tie-break
  // semantics (votes, then distance sum, then nearer neighbor) live in
  // majority_label, shared with every NnIndex::query_one path.
  return majority_label(k_nearest(query, k));
}

}  // namespace mcam::search
