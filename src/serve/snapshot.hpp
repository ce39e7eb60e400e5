// Snapshot persistence: a versioned, checksummed binary image of a
// calibrated NnIndex, so a server restarts warm in milliseconds instead of
// re-calibrating encoders and re-programming every CAM bank from scratch.
//
// Blob layout (all integers little-endian, serve/io.hpp):
//
//   [0,  8)  magic "MCAMSNAP"
//   [8, 12)  u32 format version (kSnapshotVersion)
//   [12,16)  u32 CRC-32 (IEEE) of the payload bytes
//   [16,24)  u64 payload length
//   [24,...) payload:
//              str  factory engine name  (e.g. "sharded-mcam3")
//              ...  EngineConfig fields  (the full effective config; the
//                                         u64 after bank_rows is a retired
//                                         slot, written as 1, read and
//                                         ignored)
//              u8   store block present  (v4+; 0 in plain engine snapshots)
//              ...  store block          (v4+, optional: collection name,
//                                         metadata row/tag counts, opaque
//                                         metadata image - store layer)
//              ...  engine payload       (NnIndex::save_state)
//
// The factory name + EngineConfig make the blob self-contained: `load`
// rebuilds the engine through the EngineFactory registry and hands the
// engine payload to `load_state`, which restores bit-identical query
// behavior under both sensing modes (see the save_state contract in
// search/index.hpp). Magic/version/length/checksum are validated before
// any engine code sees a byte, so a truncated or corrupted file fails
// with SnapshotError up front.
//
// Deliberately NOT persisted: telemetry counters (ServiceStats,
// ShardStats, QueryTelemetry - they restart at zero), raw RNG state
// (restore replays the physical row writes, which reconstructs the
// generators exactly), and all online-health state (obs/health): canary /
// scrub statistics restart at zero, the EngineConfig::drift_sigma test
// knob reads back 0 from `inspect`, and injected retention drift itself
// is *cured* by restore - load_state reprograms every cell, exactly as a
// device refresh would.
#pragma once

#include "search/factory.hpp"
#include "search/index.hpp"
#include "serve/io.hpp"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace mcam::serve {

/// Current snapshot format version. v2 extended the embedded EngineConfig
/// with the two-stage ("refine") fields: coarse_bits, candidate_factor,
/// refine_exhaustive, fine_spec. v3 appended the signature-model fields
/// (sig_model, probes) and persists trained signature projections inside
/// the two-stage engine payload. v4 appended the filtered-search config
/// fields (tag_bits, filter_policy) and an optional *store block* between
/// the config and the engine payload - the per-collection name + metadata
/// image the store layer (store/collection.hpp) persists alongside the
/// engine. v5 appended the software-engine rerank mode (rerank) to the
/// config. `load` still reads v2..v4 blobs: the missing config fields
/// default to the pre-upgrade behavior (no tag band, auto filter policy,
/// no store block, FP32 rerank), and the two-stage engine restores the
/// legacy coarse payload bit-identically.
inline constexpr std::uint32_t kSnapshotVersion = 5;

/// Oldest snapshot format version `load`/`inspect` still accept.
inline constexpr std::uint32_t kMinSnapshotVersion = 2;

/// Per-collection state the store layer embeds in a v4 snapshot, opaque
/// to the snapshot layer except for the summary fields `inspect` surfaces
/// (the payload is store::MetadataStore serialization).
struct StoreBlock {
  std::string collection;             ///< Collection name.
  std::uint64_t metadata_rows = 0;    ///< Metadata records (live + tombstoned).
  std::uint64_t metadata_tags = 0;    ///< Distinct interned tag strings.
  std::vector<std::uint8_t> payload;  ///< Opaque metadata image.
};

/// Parsed snapshot header + embedded build recipe (no engine state).
struct SnapshotInfo {
  std::uint32_t version = 0;       ///< Format version of the blob.
  std::uint32_t checksum = 0;      ///< CRC-32 of the payload.
  std::size_t payload_bytes = 0;   ///< Engine payload + spec length.
  std::string engine;              ///< Factory registry name.
  search::EngineConfig config;     ///< Effective engine configuration.
  bool has_store = false;          ///< v4 store block present.
  std::string collection;          ///< Collection name (store block only).
  std::uint64_t metadata_rows = 0; ///< Metadata records (store block only).
  std::uint64_t metadata_tags = 0; ///< Distinct tags (store block only).
};

/// Serializes `index` into a self-contained snapshot blob. `name` and
/// `config` must be the factory recipe the index was built with (they are
/// embedded so `load` can rebuild it); a spec-string `name` is normalized
/// through parse_engine_spec first.
[[nodiscard]] std::vector<std::uint8_t> save(const search::NnIndex& index,
                                             const std::string& name,
                                             const search::EngineConfig& config = {});

/// `save` with a store block: the collection name + metadata image ride
/// inside the same checksummed payload, between the config and the engine
/// state (the store layer's persistence path).
[[nodiscard]] std::vector<std::uint8_t> save(const search::NnIndex& index,
                                             const std::string& name,
                                             const search::EngineConfig& config,
                                             const StoreBlock& store);

/// Parses and integrity-checks the header without building an engine
/// (tooling / logging path). Throws io::SnapshotError on bad magic,
/// unknown version, length mismatch, checksum failure, or a config f64
/// field (vth_sigma, sense_clock_period, clip_percentile) that is NaN,
/// infinite or negative, which the spec parser would also refuse.
[[nodiscard]] SnapshotInfo inspect(std::span<const std::uint8_t> blob);

/// Validates the blob, rebuilds the engine from the embedded factory
/// recipe, and restores its state. The returned index answers queries
/// bit-identically to the one `save` serialized.
[[nodiscard]] std::unique_ptr<search::NnIndex> load(std::span<const std::uint8_t> blob);

/// `load` that also hands back the store block (cleared to defaults when
/// the blob carries none - check `info->has_store`) and, when `info` is
/// non-null, the parsed header/recipe. The store layer restores a whole
/// Collection from this.
[[nodiscard]] std::unique_ptr<search::NnIndex> load_with_store(
    std::span<const std::uint8_t> blob, StoreBlock& store, SnapshotInfo* info = nullptr);

/// File convenience wrappers. `save_file` writes atomically enough for a
/// single writer (tmp + rename is the caller's job for multi-writer
/// setups); `load_file` throws io::SnapshotError when the file cannot be
/// read.
void save_file(const search::NnIndex& index, const std::string& name,
               const search::EngineConfig& config, const std::string& path);
[[nodiscard]] std::unique_ptr<search::NnIndex> load_file(const std::string& path);

}  // namespace mcam::serve
