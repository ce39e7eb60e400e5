// Sharding layer: one logical NnIndex over many capacity-bounded CAM banks.
//
// A physical FeFET CAM bank is small - matchlines cap out at ~64-128
// rows/cells before the sense margin collapses (PAPER.md Sec. III; the
// experimental demonstrator stores a handful of rows) - so any dataset
// beyond one array must be tiled across banks and the per-bank winners
// merged, the SEE-MCAM / FeReX scaling recipe. ShardedNnIndex does exactly
// that around *any* NnIndex backend:
//
//  - `add` routes rows into fixed-capacity banks, allocating a fresh bank
//    from the factory when the last one fills. Every bank is calibrated on
//    the same rows the monolithic engine would have fitted its encoders on
//    (the first add batch, or an explicit `calibrate` call), so per-bank
//    scores stay globally comparable.
//  - `query_one` asks the live banks in turn on the calling thread and
//    hierarchically merges the per-bank top-k lists into one
//    nearest-first ranking. Parallelism belongs to the caller: the
//    serving runtime's worker pool and BatchExecutor spread queries over
//    the cores, so the shard layer spawns no threads. Under kIdealSum
//    the per-bank matchline conductances are globally comparable, and the
//    head-merge (smallest score first, bank index breaking ties) is
//    *bit-identical* to the monolithic engine's ranking: global ids
//    increase with bank index, so the bank-index tie-break equals the WTA
//    low-index convention. Under kMatchlineTiming each bank's list is its
//    own WTA latch order; the merge pops bank heads by conductance with
//    the same bank-index tie-break, which preserves every bank's latch
//    order and equals a global sense when the clock is ideal.
//  - `erase` tombstones the row in its bank (validity latch - no
//    reprogramming); when a bank's dead fraction exceeds the configured
//    threshold the bank is compacted: a fresh engine is built and the
//    survivors are reprogrammed into it, with the reprogram energy charged
//    to `ShardStats` via the energy::model.
//
// Global ids are insertion-order (0, 1, 2, ...), never reused, and stable
// across erase/compaction - exactly the monolithic `Neighbor::index`
// convention, which is what makes the identity property testable.
#pragma once

#include "search/index.hpp"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace mcam::search {

/// Builds one fresh (empty, uncalibrated) bank engine.
using BankFactory = std::function<std::unique_ptr<NnIndex>()>;

/// Shard-layer knobs.
struct ShardedConfig {
  /// Rows per bank; a new bank is allocated when the last one holds this
  /// many physical rows. Mirrors the matchline-length limit of the
  /// hardware (Sec. III): keep it at or below ~128.
  std::size_t bank_rows = 64;
  /// Compact (reprogram) a bank when dead/physical rows exceeds this
  /// fraction; >= 1.0 disables compaction.
  double compact_dead_fraction = 0.5;
  /// Energy charged per compaction, as f(live_rows_reprogrammed, word
  /// length) [J]. Null = the default TCAM programming model
  /// (energy::ArrayEnergyModel::tcam_program_energy); the factory installs
  /// the MCAM pulse-programming model for mcam banks and zero for software
  /// backends.
  std::function<double(std::size_t rows, std::size_t cols)> reprogram_energy{};
};

/// Mutation/compaction telemetry, cumulative over the index lifetime.
/// Counters are monotone non-decreasing until `clear()`.
struct ShardStats {
  std::size_t banks_allocated = 0;    ///< Banks ever built (compaction rebuilds count).
  std::size_t compactions = 0;        ///< Bank reprogram events.
  std::size_t rows_reprogrammed = 0;  ///< Live rows rewritten by compactions.
  double reprogram_energy_j = 0.0;    ///< Energy charged for those rewrites [J].
};

/// One logical nearest-neighbor index sharded across bounded CAM banks.
class ShardedNnIndex final : public NnIndex {
 public:
  /// `bank_factory` must yield a fresh engine per call; every bank must be
  /// the same backend with the same configuration or scores stop being
  /// comparable. Throws std::invalid_argument on a null factory or zero
  /// bank_rows.
  explicit ShardedNnIndex(BankFactory bank_factory, ShardedConfig config = ShardedConfig{});

  void add(std::span<const std::vector<float>> rows, std::span<const int> labels) override;
  /// Fits bank 0 on `rows` before keeping them: rows the backend refuses
  /// throw here and leave the index uncalibrated.
  void calibrate(std::span<const std::vector<float>> rows) override;
  void clear() override;
  bool erase(std::size_t id) override;
  [[nodiscard]] std::size_t size() const override { return live_rows_; }
  [[nodiscard]] QueryResult query_one(std::span<const float> query,
                                      std::size_t k) const override;
  [[nodiscard]] std::string name() const override;

  /// Serializes the calibration rows, the id map and every bank's raw
  /// rows/labels/validity latches. Banks are *not* serialized as engine
  /// payloads: load_state rebuilds each bank through the factory and
  /// replays calibrate + add + erase, which is exactly the canonical
  /// construction of the bank's current state (compaction already reduced
  /// it to "fresh engine + live adds"), so the restored index answers
  /// queries bit-identically under both sensing modes. ShardStats
  /// telemetry deliberately restarts at zero.
  void save_state(serve::io::Writer& out) const override;
  void load_state(serve::io::Reader& in) override;

  /// Number of banks currently allocated.
  [[nodiscard]] std::size_t num_banks() const noexcept { return banks_.size(); }
  /// Current bank index holding global `id`, or num_banks() when the id's
  /// slot is gone (compacted away, or its emptied bank was released).
  /// Bank indices shift when an emptied bank is dropped - this is the
  /// id -> bank mapping `erase` resolves through, exposed so tests can
  /// pin the whole-bank-release edge cases.
  [[nodiscard]] std::size_t bank_of(std::size_t id) const;
  /// Bank `b`'s engine (for tests and diagnostics).
  [[nodiscard]] const NnIndex& bank(std::size_t b) const { return *banks_.at(b).engine; }
  /// Mutable bank access for device-maintenance paths (health scrubbing /
  /// drift injection, obs/health) under the caller's usual external
  /// synchronization. Must not be used to mutate the engine's logical
  /// contents - the shard layer's row/id bookkeeping would go stale.
  [[nodiscard]] NnIndex& bank(std::size_t b) { return *banks_.at(b).engine; }
  /// Cumulative mutation telemetry.
  [[nodiscard]] const ShardStats& stats() const noexcept { return stats_; }
  /// Shard configuration in use.
  [[nodiscard]] const ShardedConfig& config() const noexcept { return config_; }

 private:
  /// One capacity-bounded bank plus the shard layer's bookkeeping. The raw
  /// rows are retained because compaction must reprogram the survivors
  /// into a fresh engine (a real controller would re-encode from DRAM the
  /// same way).
  struct Bank {
    std::unique_ptr<NnIndex> engine;
    std::vector<std::vector<float>> rows;  ///< Raw rows, parallel to engine slots.
    std::vector<int> labels;
    std::vector<std::size_t> ids;          ///< Global id per slot, strictly increasing.
    std::vector<std::uint8_t> live;        ///< 1 = not tombstoned.
    std::size_t live_count = 0;
  };

  /// A fresh engine from the factory, calibrated on `rows`.
  [[nodiscard]] std::unique_ptr<NnIndex> fitted_engine(
      std::span<const std::vector<float>> rows) const;
  /// Appends a calibrated bank: `first_bank_` when `calibrate` left one,
  /// else a freshly fitted engine.
  Bank& new_bank();
  /// Reprograms bank `b` with only its live rows (or drops it when empty).
  void compact(std::size_t b);
  /// Where global `id` lives: bank index + slot within it. `bank ==
  /// banks_.size()` when the slot is gone (compacted away or its bank
  /// released); the one id -> location probe behind bank_of and erase.
  struct Location {
    std::size_t bank = 0;
    std::size_t slot = 0;
  };
  [[nodiscard]] Location locate(std::size_t id) const;

  BankFactory bank_factory_;
  ShardedConfig config_;
  std::vector<Bank> banks_;
  std::vector<std::vector<float>> calibration_rows_;  ///< What every bank calibrates on.
  /// The engine `calibrate` fitted to accept the rows; bank 0 once added.
  std::unique_ptr<NnIndex> first_bank_;
  std::size_t next_id_ = 0;
  std::size_t live_rows_ = 0;
  std::size_t word_length_ = 0;
  ShardStats stats_;
};

/// Wraps `bank_factory` in a ShardedNnIndex (convenience mirroring
/// make_index).
[[nodiscard]] std::unique_ptr<NnIndex> make_sharded(BankFactory bank_factory,
                                                    ShardedConfig config = ShardedConfig{});

}  // namespace mcam::search
