// Production nearest-neighbor index interface: incremental adds, batched
// top-k queries with raw match scores, and per-query telemetry.
//
// Every backend - software linear scan, TCAM+LSH,
// FeFET MCAM array, conductance-LUT MCAM - implements `query_one`, which
// surfaces the backend's *native* ranking:
//
//  - software engines rank by metric distance (cosine/Euclidean/...),
//  - the TCAM ranks by matchline conductance, which is proportional to the
//    Hamming popcount of the stored signature vs the query,
//  - the MCAM ranks by total matchline conductance (discharge current),
//    realizing the paper's distance function at the row level; under
//    kMatchlineTiming sensing the order is the order in which a repeated
//    winner-take-all sense would latch matchlines, slowest first.
//
// Batched execution (`query`) is the serving primitive; `BatchExecutor`
// (search/batch.hpp) shards batches across worker threads. `query_one`
// implementations are const and touch no mutable state, so concurrent
// queries against one index are safe.
//
#pragma once

#include "search/knn.hpp"

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace mcam::serve::io {
class Writer;
class Reader;
}  // namespace mcam::serve::io

namespace mcam::search {

/// Per-query execution telemetry.
struct QueryTelemetry {
  std::size_t candidates = 0;    ///< Live stored rows compared against the query.
  std::size_t sense_events = 0;  ///< WTA latch events needed for the top-k (CAM engines).
  double energy_j = 0.0;         ///< Estimated search energy (0 when no model applies) [J].
  std::size_t banks_searched = 1;  ///< CAM banks fanned across (1 for monolithic engines;
                                   ///< ShardedNnIndex sums its per-bank counters here).
  std::size_t coarse_candidates = 0;  ///< Rows compared in a coarse prefilter stage,
                                      ///< summed over every probe sweep
                                      ///< (TwoStageNnIndex only; 0 elsewhere).
  std::size_t fine_candidates = 0;    ///< Rows reranked by the precise stage
                                      ///< (TwoStageNnIndex only; 0 elsewhere).
  double coarse_margin = 0.0;  ///< Matchline-conductance gap [S] between the best
                               ///< row excluded from the coarse nomination and the
                               ///< last row nominated - the per-query confidence
                               ///< signal behind adaptive candidate budgets. 0 when
                               ///< every live row was nominated or no coarse stage
                               ///< ran (TwoStageNnIndex only).
  std::size_t probes_used = 0;  ///< Coarse multi-probe Hamming sweeps executed
                                ///< (TwoStageNnIndex only; 0 when the coarse stage
                                ///< did not run, e.g. exhaustive fallback).
  std::size_t filtered_out = 0;  ///< Live rows a metadata predicate excluded before
                                 ///< the precise stage - in-array via the coarse tag
                                 ///< band (query_filtered) or up front by the
                                 ///< post-filter candidate list (store::Collection).
                                 ///< 0 for unfiltered queries.
  const char* kernel = "";  ///< Distance-kernel backend that ranked this query:
                            ///< "scalar" | "avx2" | "neon" (with "+int8" when the
                            ///< int8 rerank ordering ran), "functor" for the
                            ///< custom-metric loop, "" for engines that do not
                            ///< rank through distance/kernels/ (CAM arrays).
                            ///< Always a static string, safe to copy/hold.
};

/// Result of one top-k query.
struct QueryResult {
  int label = 0;                    ///< Predicted label (majority vote over the top-k).
  std::vector<Neighbor> neighbors;  ///< Top-k, nearest first; `distance` is the raw
                                    ///< match score (metric distance, or matchline
                                    ///< conductance [S] for the CAM engines).
  QueryTelemetry telemetry;         ///< Execution counters for this query.
};

/// Majority vote over ranked neighbors: most votes wins; ties break to the
/// smaller summed score, then to the earlier (nearer) first occurrence.
/// With k = 1 this is exactly the nearest neighbor's label.
[[nodiscard]] int majority_label(std::span<const Neighbor> neighbors);

/// Indices of the k smallest scores, ascending with low-index tie-break
/// (the argmin/WTA convention of the CAM arrays). k is clamped to
/// [1, scores.size()]; throws std::logic_error on an empty score set.
[[nodiscard]] std::vector<std::size_t> top_k_ascending(std::span<const double> scores,
                                                       std::size_t k);

/// Assembles a QueryResult from nearest-first `ranked` row indices and the
/// per-row native scores: fills the neighbor list, the majority-vote
/// label, and the candidates/sense-events telemetry (energy is left for
/// the engine to fill).
[[nodiscard]] QueryResult make_query_result(std::span<const std::size_t> ranked,
                                            std::span<const double> scores,
                                            std::span<const int> labels);

/// Common interface of every nearest-neighbor backend.
class NnIndex {
 public:
  virtual ~NnIndex() = default;

  /// Appends labeled vectors. The first call on an empty, uncalibrated
  /// index also calibrates the backend's encoders (scaler / LSH planes /
  /// quantizer ranges) on that batch; later calls reuse them, so entries
  /// can stream in incrementally after calibration.
  virtual void add(std::span<const std::vector<float>> rows, std::span<const int> labels) = 0;

  /// Removes every stored entry (and any encoder fitted from data, but not
  /// externally installed fixed encoders).
  virtual void clear() = 0;

  /// Calibrates the backend's encoders (scaler / LSH planes / quantizer
  /// ranges) on `rows` without storing any of them, exactly as the first
  /// `add` would. Lets a deployment fix encoder statistics on a base split
  /// before streaming entries in, and lets the shard layer give every bank
  /// the encoder the monolithic engine would have fitted. A later `clear`
  /// drops the calibration again. Default: no-op (backends without fitted
  /// encoders, e.g. the FP32 software scan, need none).
  virtual void calibrate(std::span<const std::vector<float>> rows);

  /// Tombstones entry `id` (the insertion-order index reported as
  /// `Neighbor::index`): it stops being returned by queries and stops
  /// counting toward `size()`, but remaining ids are stable - CAM backends
  /// gate the row's validity latch instead of reprogramming the bank.
  /// Returns false when `id` was already erased; throws std::out_of_range
  /// for an id that was never added, std::logic_error when the backend
  /// does not support erasure.
  virtual bool erase(std::size_t id);

  /// Number of live (added and not erased) entries.
  [[nodiscard]] virtual std::size_t size() const = 0;

  /// Top-k search for one query. Throws std::logic_error before any data
  /// is added.
  ///
  /// k-convention (the single contract for every entry point - query_one,
  /// query, query_subset, ExactNnIndex::k_nearest, and the QueryService
  /// cache key): `k` is clamped to [1, size()]. In particular k = 0 is
  /// normalized to 1 (1-NN), never an empty result - the same logical
  /// query must produce the same answer (and the same cache entry) whether
  /// the caller spelled it k = 0 or k = 1.
  [[nodiscard]] virtual QueryResult query_one(std::span<const float> query,
                                              std::size_t k) const = 0;

  /// Batched top-k search (sequential; see BatchExecutor for the parallel
  /// path). Result `i` corresponds to `batch[i]`.
  [[nodiscard]] std::vector<QueryResult> query(std::span<const std::vector<float>> batch,
                                               std::size_t k) const;

  /// Top-k search restricted to the candidate rows in `ids` (global
  /// insertion-order ids, the `Neighbor::index` convention). This is the
  /// rerank primitive of the two-stage pipeline (search/refine.hpp): a
  /// coarse prefilter picks `ids`, and only those matchlines are
  /// precharged and sensed in the precise stage. Duplicate, tombstoned,
  /// or never-added ids are ignored; throws std::invalid_argument when no
  /// live candidate remains and std::logic_error before any data is added.
  ///
  /// Contract: the returned ranking is the backend's native ranking
  /// filtered to `ids` - when `ids` covers every live row the result is
  /// bit-identical to `query_one(query, k)`. Telemetry counts only the
  /// live candidates (`candidates`), and `energy_j` charges only their
  /// matchlines (the array energy models are linear in rows, so the
  /// full-search energy is scaled by the candidate fraction). The default
  /// implementation filters the full native ranking; backends may
  /// override with a genuinely sub-linear scan (SoftwareNnEngine does).
  [[nodiscard]] virtual QueryResult query_subset(std::span<const float> query,
                                                 std::span<const std::size_t> ids,
                                                 std::size_t k) const;

  /// Human-readable engine name for result tables.
  [[nodiscard]] virtual std::string name() const = 0;

  // --- Snapshot hooks (serve/snapshot.hpp) -------------------------------

  /// Serializes the engine's complete durable state - fitted encoder /
  /// quantizer calibration, every physical stored row in insertion order,
  /// labels, and validity latches - such that `load_state` on a freshly
  /// built engine of the same factory spec restores a *bit-identical*
  /// index: identical `query`/`query_one` answers under every sensing
  /// mode, and identical behavior for later `add`s (restoring replays the
  /// physical row writes, so per-cell programming noise and the RNG
  /// position are reconstructed exactly). Deliberately NOT persisted:
  /// telemetry counters (they restart at zero) and raw RNG state (replay
  /// reconstructs it). Default: throws std::logic_error for backends
  /// without snapshot support.
  virtual void save_state(serve::io::Writer& out) const;

  /// Inverse of `save_state`. Must be called on an engine built with the
  /// same configuration the saved engine had (the snapshot layer embeds
  /// the factory spec to guarantee this); any existing state is cleared
  /// first. Throws serve::io::SnapshotError on a malformed payload or an
  /// engine-type mismatch. Default: throws std::logic_error.
  virtual void load_state(serve::io::Reader& in);

  /// Fraction of `queries` classified correctly with k-NN majority vote.
  [[nodiscard]] double accuracy(std::span<const std::vector<float>> queries,
                                std::span<const int> labels, std::size_t k = 1) const;
};

}  // namespace mcam::search
