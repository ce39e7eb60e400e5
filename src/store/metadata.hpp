// Per-collection row metadata: interned tags, TTLs, and soft-deletes.
//
// Every row a collection stores gets one RowMetadata record, parallel to
// the engine's insertion-order id space. Tag strings are interned once
// per collection into dense ids, so a row's tags are a handful of u32s
// and predicate evaluation is integer comparisons; the interner also
// defines the *band slot* of each tag - the cell of the coarse TCAM tag
// band (search/refine.hpp) that advertises the tag's presence. The band
// is a Bloom-style presence map: slots are assigned by mixing the tag id
// (splitmix64), distinct tags may collide on a slot, and the store layer
// always re-verifies nominated rows against the exact tag ids - the band
// only ever over-approximates, so in-array filtering can never drop a
// truly matching row.
//
// Each interned tag also keeps a posting list: the ascending ids of the
// rows that carry it. The lists are derived state - append, truncate and
// load maintain them, snapshots never store them - and they make predicate
// matching cost the rows a predicate selects, not every row: a conjunction
// walks the shortest list of its tags and checks the others per row. A
// caller that evaluates one predicate many times resolves its names to
// tag ids once (`resolve`) and passes the ids to the id-based overloads,
// so no string lookup runs per row.
//
// TTLs are *logical* expiry ticks: the store never reads a wall clock
// (determinism, testability); callers pass `now` to expired_ids and
// decide the tick domain (seconds, versions, batch numbers). Expiry and
// erasure are soft-deletes here - the engine's tombstone is authoritative
// for search; the metadata mirror (`erased`) keeps predicate matching and
// band bitmaps consistent without querying the engine.
#pragma once

#include "serve/io.hpp"
#include "store/predicate.hpp"

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace mcam::store {

/// Stable tag-band slot of an interned tag id in a `tag_bits`-wide band.
/// Splitmix64-mixed so dense ids spread uniformly over the band; the
/// mapping is part of the snapshot contract (stored bitmaps were
/// programmed with it), so it must never change for a given (id,
/// tag_bits). `tag_bits` must be > 0.
[[nodiscard]] std::size_t band_slot(std::uint32_t tag_id, std::size_t tag_bits);

/// One row's metadata record.
struct RowMetadata {
  std::vector<std::uint32_t> tags;  ///< Sorted, deduplicated interned tag ids.
  std::uint64_t expires_at = 0;     ///< Logical expiry tick; 0 = never expires.
  bool erased = false;              ///< Soft-delete mirror of the engine tombstone.
};

/// The metadata side of one collection: tag interner + row records.
/// Externally synchronized, like the engine it mirrors (the manager's
/// per-collection lock covers both).
class MetadataStore {
 public:
  /// Interns `name` (idempotent) and returns its dense id.
  std::uint32_t intern_tag(const std::string& name);

  /// Appends one record (tags interned, deduplicated) and returns its row
  /// id - by construction the engine id of the row added alongside it.
  /// Throws std::invalid_argument on an empty tag; the record is then not
  /// appended, though tags named before it stay interned.
  std::size_t append(std::span<const std::string> tags, std::uint64_t expires_at = 0);

  /// Drops the trailing records down to `rows() == count` - the rollback
  /// hook for an engine add that failed after metadata was staged.
  /// Interned tag names are retained (ids must stay stable). Throws
  /// std::invalid_argument when `count > rows()`.
  void truncate(std::size_t count);

  /// Soft-deletes row `id`. Returns false when already erased; throws
  /// std::out_of_range for a never-appended id (the erase contract of
  /// search/index.hpp, mirrored).
  bool mark_erased(std::size_t id);

  /// Total records, tombstoned included (= the engine's physical rows).
  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }
  /// Records not yet erased.
  [[nodiscard]] std::size_t live() const noexcept { return live_; }
  /// Record of row `id`; throws std::out_of_range.
  [[nodiscard]] const RowMetadata& row(std::size_t id) const;

  /// Distinct interned tags.
  [[nodiscard]] std::size_t tag_count() const noexcept { return tag_names_.size(); }
  /// Dense id of `name`, if ever interned.
  [[nodiscard]] std::optional<std::uint32_t> find_tag(const std::string& name) const;
  /// Name of tag `id`; throws std::out_of_range.
  [[nodiscard]] const std::string& tag_name(std::uint32_t id) const;

  /// Interned ids of `predicate`'s tags in predicate order, or
  /// std::nullopt when one was never interned (no row can match).
  [[nodiscard]] std::optional<std::vector<std::uint32_t>> resolve(
      const Predicate& predicate) const;

  /// True when row `id` is live and carries every tag of `predicate`
  /// (false - never a throw - for unknown predicate tags: nothing can
  /// match a tag no row ever carried). An empty predicate matches every
  /// live row. Throws std::out_of_range for a never-appended id.
  [[nodiscard]] bool matches(std::size_t id, const Predicate& predicate) const;
  /// `matches` over resolved tag ids; an id never interned matches no row.
  [[nodiscard]] bool matches(std::size_t id, std::span<const std::uint32_t> tags) const;

  /// Ascending ids of every live row matching `predicate` - the exact
  /// candidate list of the post-filter path, and the ground truth the
  /// band path is verified against.
  [[nodiscard]] std::vector<std::size_t> matching_ids(const Predicate& predicate) const;
  /// `matching_ids` over resolved tag ids: walks the shortest posting list.
  [[nodiscard]] std::vector<std::size_t> matching_ids(
      std::span<const std::uint32_t> tags) const;

  /// Ascending ids of live rows whose TTL is due (`0 < expires_at <= now`).
  [[nodiscard]] std::vector<std::size_t> expired_ids(std::uint64_t now) const;

  /// Row `id`'s tag-band presence bitmap (`tag_bits` bytes, 1 = slot set):
  /// the bits add_tagged programs into the coarse TCAM.
  [[nodiscard]] std::vector<std::uint8_t> band_bits(std::size_t id,
                                                    std::size_t tag_bits) const;

  /// Required-slot bitmap of `predicate` for a filtered coarse sweep, or
  /// std::nullopt when a predicate tag was never interned (no row can
  /// match, so there is nothing to sweep for).
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> band_query(
      const Predicate& predicate, std::size_t tag_bits) const;
  /// `band_query` over resolved (interned) tag ids.
  [[nodiscard]] std::vector<std::uint8_t> band_query(std::span<const std::uint32_t> tags,
                                                     std::size_t tag_bits) const;

  /// Serialization (the store-block payload of a v4 snapshot): complete
  /// state - interner order, every record, tombstones - restores
  /// bit-identically; load rebuilds the posting lists.
  void save(serve::io::Writer& out) const;
  void load(serve::io::Reader& in);

 private:
  /// Interns a name known to be new and non-empty; returns its id.
  std::uint32_t add_tag(const std::string& name);
  /// Appends `record` (interned, sorted tags) and its posting entries.
  std::size_t push_row(RowMetadata record);

  std::vector<std::string> tag_names_;           ///< id -> name, intern order.
  std::map<std::string, std::uint32_t> tag_ids_; ///< name -> id.
  std::vector<RowMetadata> rows_;
  /// Tag id -> ascending ids of the rows carrying it, erased rows included.
  std::vector<std::vector<std::size_t>> postings_;
  std::size_t live_ = 0;
};

}  // namespace mcam::store
