// One named collection: an engine (any EngineFactory backend) plus the
// metadata that makes it filterable and multi-tenant-safe.
//
// A Collection pairs an NnIndex with a MetadataStore sharing the same
// insertion-order id space, a monotonically increasing generation counter
// (bumped by every mutation - the staleness token snapshot identity tests
// and caches key on), and the filtered-query router. A filtered query has
// two physical strategies:
//
//   band  - TCAM-pushed: the predicate's required tags pin exact bits in
//           the coarse TCAM's tag band (kDontCare elsewhere), so the
//           coarse sweep only nominates predicate-satisfying rows and the
//           fine stage never sees the rest. Available when the engine is
//           a two-stage pipeline built with tag_bits > 0. Nominees are
//           re-verified against exact tag ids (the band is a Bloom map),
//           so results equal brute-force post-filtering whenever the
//           candidate budget covers every eligible row.
//   post  - post-filter rerank: evaluate the predicate in metadata,
//           query_subset over the exact matching ids. Always available;
//           exact by construction; O(matching) precise compares.
//
// The `filter=` spec key picks the policy: "band" forces the band (post
// only as fallback when the band cannot serve); "post", "auto" and the
// empty default post-filter every predicate. Where the matching rows fit
// the nomination budget (TwoStageNnIndex::nomination_budget,
// candidate_factor * max(k, 1)), the band would rerank every one of them
// anyway, after paying for a gate, a full sweep and a nomination; where
// more rows match than the budget, the band nominates only part of them
// and loses recall, and on the measured shapes it was slower there too.
//
// Collections are externally synchronized (one writer or concurrent
// readers) - store::CollectionManager wraps each in a shared_mutex and
// adds the worker pool, admission control, and per-collection stats.
#pragma once

#include "search/factory.hpp"
#include "search/refine.hpp"
#include "serve/snapshot.hpp"
#include "store/metadata.hpp"
#include "store/predicate.hpp"

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace mcam::store {

/// Filtered-query routing policy (the `filter=` spec key).
enum class FilterPolicy : std::uint8_t { kPost = 0, kBand };

/// Parses "", "auto", "band", "post" (the EngineConfig::filter_policy
/// values the spec parser admits; "", "auto" and "post" are kPost);
/// throws std::invalid_argument otherwise.
[[nodiscard]] FilterPolicy parse_filter_policy(const std::string& value);

/// Which physical strategy served a query.
enum class FilterPath : std::uint8_t {
  kNone = 0,     ///< Unfiltered (empty predicate).
  kBand,         ///< TCAM-pushed tag band.
  kPostFilter,   ///< query_subset over the exact matching ids.
};

/// A query answer plus the routing facts the stats layer aggregates.
struct CollectionQueryResult {
  search::QueryResult result;
  FilterPath path = FilterPath::kNone;
  double selectivity = 1.0;  ///< matching / live at execution (1 unfiltered).
};

/// One named, filterable collection. See the header comment.
class Collection {
 public:
  /// Builds the engine from `spec` (any EngineFactory spec string, e.g.
  /// "refine:coarse_bits=64,tag_bits=32,fine=euclidean") over `base`.
  /// The tag band is available when the spec resolves to a two-stage
  /// pipeline with tag_bits > 0.
  Collection(std::string name, const std::string& spec,
             const search::EngineConfig& base = {});

  [[nodiscard]] const std::string& collection_name() const noexcept { return name_; }
  /// Factory registry key + effective config the engine was built from.
  [[nodiscard]] const search::EngineSpec& spec() const noexcept { return spec_; }
  /// Mutation counter: bumped by every add / erase / expire.
  [[nodiscard]] std::uint64_t generation() const noexcept { return generation_; }
  [[nodiscard]] const search::NnIndex& engine() const noexcept { return *engine_; }
  /// Mutable engine access for device-maintenance paths (health scrubbing /
  /// drift injection, obs/health) under the caller's exclusive lock; must
  /// not be used to mutate the engine's logical contents (ids / rows), or
  /// the metadata mirror and generation counter go stale.
  [[nodiscard]] search::NnIndex& engine() noexcept { return *engine_; }
  /// Bumps the generation without a logical mutation. Device-maintenance
  /// paths (drift injection, obs/health) call this so generation-keyed
  /// consumers - the recall canary's staleness check, result caches -
  /// discard anything computed across the device change.
  void note_device_mutation() noexcept { ++generation_; }
  [[nodiscard]] const MetadataStore& metadata() const noexcept { return meta_; }
  [[nodiscard]] std::size_t size() const { return engine_->size(); }
  /// True when filtered queries can be pushed into the coarse tag band.
  [[nodiscard]] bool band_capable() const noexcept;
  [[nodiscard]] FilterPolicy filter_policy() const noexcept { return policy_; }

  /// Calibrates the engine's encoders without storing rows.
  void calibrate(std::span<const std::vector<float>> rows);

  /// Untagged batch add (rows never match any tag predicate). Returns the
  /// id of the first row added.
  std::size_t add(std::span<const std::vector<float>> rows, std::span<const int> labels);

  /// Tagged batch add: `tags[i]` are row i's tags, `expires_at[i]` its
  /// logical TTL tick (0 = never; pass an empty span for no TTLs). On a
  /// band-capable engine the rows' presence bitmaps are programmed into
  /// the coarse tag band atomically with the add. A rejected batch (an
  /// empty tag, or an engine error) rolls the metadata back, so metadata
  /// and engine ids stay in step. Returns the first new id.
  std::size_t add(std::span<const std::vector<float>> rows, std::span<const int> labels,
                  std::span<const std::vector<std::string>> tags,
                  std::span<const std::uint64_t> expires_at = {});

  /// Tombstones `id` in the engine and the metadata mirror. Same contract
  /// as NnIndex::erase (false when already gone, std::out_of_range when
  /// never added).
  bool erase(std::size_t id);

  /// Erases every live row whose TTL is due at logical tick `now`;
  /// returns how many were expired.
  std::size_t expire(std::uint64_t now);

  /// Top-k with an optional conjunctive tag predicate. Routing per the
  /// header comment; `result.telemetry.filtered_out` reports the rows the
  /// predicate excluded before the precise stage on either path. Throws
  /// std::invalid_argument when a predicate matches no live row.
  [[nodiscard]] CollectionQueryResult query(std::span<const float> query, std::size_t k,
                                            const Predicate& predicate = {}) const;

  /// v4 snapshot of engine + metadata + generation (one self-contained
  /// blob; serve/snapshot.hpp layout with this collection's store block).
  [[nodiscard]] std::vector<std::uint8_t> snapshot() const;
  void save_file(const std::string& path) const;

  /// Rebuilds a collection from a v4 blob with a store block; throws
  /// serve::io::SnapshotError when the blob has none (a plain engine
  /// snapshot is not a collection).
  [[nodiscard]] static std::unique_ptr<Collection> restore(
      std::span<const std::uint8_t> blob);
  [[nodiscard]] static std::unique_ptr<Collection> load_file(const std::string& path);

 private:
  Collection() = default;  // restore() assembles the fields directly.

  std::string name_;
  search::EngineSpec spec_;
  std::unique_ptr<search::NnIndex> engine_;
  search::TwoStageNnIndex* two_stage_ = nullptr;  ///< Borrowed; null unless refine.
  FilterPolicy policy_ = FilterPolicy::kPost;
  MetadataStore meta_;
  std::uint64_t generation_ = 0;
};

}  // namespace mcam::store
