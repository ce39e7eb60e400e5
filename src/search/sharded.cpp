#include "search/sharded.hpp"

#include "energy/model.hpp"
#include "obs/trace.hpp"
#include "serve/io.hpp"
#include "util/linalg.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace mcam::search {

ShardedNnIndex::ShardedNnIndex(BankFactory bank_factory, ShardedConfig config)
    : bank_factory_(std::move(bank_factory)), config_(config) {
  if (!bank_factory_) throw std::invalid_argument{"ShardedNnIndex: null bank factory"};
  if (config_.bank_rows == 0) throw std::invalid_argument{"ShardedNnIndex: zero bank_rows"};
}

void ShardedNnIndex::calibrate(std::span<const std::vector<float>> rows) {
  if (!calibration_rows_.empty()) return;  // Fitted once; later calls are no-ops.
  if (rows.empty()) throw std::invalid_argument{"ShardedNnIndex::calibrate: no rows"};
  // Fit the first bank before keeping the rows, so that rows the backend
  // refuses throw here and leave the index uncalibrated, like the
  // monolithic engine. That engine becomes bank 0: no bank fits twice.
  first_bank_ = fitted_engine(rows);
  calibration_rows_.assign(rows.begin(), rows.end());
  word_length_ = rows.front().size();
}

std::unique_ptr<NnIndex> ShardedNnIndex::fitted_engine(
    std::span<const std::vector<float>> rows) const {
  std::unique_ptr<NnIndex> engine = bank_factory_();
  if (!engine) throw std::invalid_argument{"ShardedNnIndex: factory returned null"};
  // Every bank fits its encoders on the same rows the monolithic engine
  // would have used, so scores are comparable across banks.
  engine->calibrate(rows);
  return engine;
}

ShardedNnIndex::Bank& ShardedNnIndex::new_bank() {
  Bank bank;
  bank.engine = first_bank_ ? std::move(first_bank_) : fitted_engine(calibration_rows_);
  ++stats_.banks_allocated;
  banks_.push_back(std::move(bank));
  return banks_.back();
}

void ShardedNnIndex::add(std::span<const std::vector<float>> rows,
                         std::span<const int> labels) {
  if (rows.size() != labels.size() || rows.empty()) {
    throw std::invalid_argument{"ShardedNnIndex::add: bad training set"};
  }
  // Validate the whole batch up front so routing across banks stays
  // all-or-nothing, matching the monolithic engines' add contract.
  const std::size_t width = word_length_ > 0 ? word_length_ : rows.front().size();
  for (const auto& row : rows) {
    if (row.size() != width || row.empty()) {
      throw std::invalid_argument{"ShardedNnIndex::add: dimension mismatch"};
    }
  }
  if (calibration_rows_.empty()) calibrate(rows);

  std::size_t offset = 0;
  while (offset < rows.size()) {
    if (banks_.empty() || banks_.back().rows.size() >= config_.bank_rows) new_bank();
    Bank& bank = banks_.back();
    const std::size_t space = config_.bank_rows - bank.rows.size();
    const std::size_t take = std::min(space, rows.size() - offset);
    bank.engine->add(rows.subspan(offset, take), labels.subspan(offset, take));
    for (std::size_t i = 0; i < take; ++i) {
      bank.rows.push_back(rows[offset + i]);
      bank.labels.push_back(labels[offset + i]);
      bank.ids.push_back(next_id_++);
      bank.live.push_back(1);
    }
    bank.live_count += take;
    live_rows_ += take;  // Inside the loop: a throwing bank engine must not
                         // desync size() from the banks already programmed.
    offset += take;
  }
}

void ShardedNnIndex::clear() {
  banks_.clear();
  first_bank_.reset();
  calibration_rows_.clear();
  next_id_ = 0;
  live_rows_ = 0;
  word_length_ = 0;
  stats_ = ShardStats{};
}

ShardedNnIndex::Location ShardedNnIndex::locate(std::size_t id) const {
  // Bank id ranges are disjoint and ascending (ids are handed out in
  // insertion order and dropped banks keep the order), so the first bank
  // whose max id reaches `id` is the only candidate; the exact membership
  // probe distinguishes a live slot from an id compacted out of that
  // bank's range.
  for (std::size_t b = 0; b < banks_.size(); ++b) {
    const Bank& bank = banks_[b];
    if (bank.ids.empty() || bank.ids.back() < id) continue;
    const auto it = std::lower_bound(bank.ids.begin(), bank.ids.end(), id);
    if (it != bank.ids.end() && *it == id) {
      return Location{b, static_cast<std::size_t>(it - bank.ids.begin())};
    }
    break;
  }
  return Location{banks_.size(), 0};
}

std::size_t ShardedNnIndex::bank_of(std::size_t id) const { return locate(id).bank; }

bool ShardedNnIndex::erase(std::size_t id) {
  if (id >= next_id_) throw std::out_of_range{"ShardedNnIndex::erase: unknown id"};
  const Location where = locate(id);
  if (where.bank == banks_.size()) return false;  // Compacted away: already erased.
  Bank& bank = banks_[where.bank];
  const std::size_t slot = where.slot;
  if (!bank.live[slot]) return false;
  bank.engine->erase(slot);  // Gate the row's validity latch in the bank.
  bank.live[slot] = 0;
  --bank.live_count;
  --live_rows_;
  const std::size_t dead = bank.rows.size() - bank.live_count;
  if (static_cast<double>(dead) >
      config_.compact_dead_fraction * static_cast<double>(bank.rows.size())) {
    compact(where.bank);
  }
  return true;
}

void ShardedNnIndex::compact(std::size_t b) {
  Bank& bank = banks_[b];
  ++stats_.compactions;
  if (bank.live_count == 0) {
    // Nothing to reprogram: release the bank entirely (its ids are gone
    // for good - global ids are never reused).
    banks_.erase(banks_.begin() + static_cast<std::ptrdiff_t>(b));
    return;
  }
  Bank fresh;
  fresh.engine = fitted_engine(calibration_rows_);
  ++stats_.banks_allocated;
  for (std::size_t i = 0; i < bank.rows.size(); ++i) {
    if (!bank.live[i]) continue;
    fresh.rows.push_back(std::move(bank.rows[i]));
    fresh.labels.push_back(bank.labels[i]);
    fresh.ids.push_back(bank.ids[i]);
    fresh.live.push_back(1);
  }
  fresh.live_count = fresh.rows.size();
  fresh.engine->add(fresh.rows, fresh.labels);
  stats_.rows_reprogrammed += fresh.rows.size();
  if (config_.reprogram_energy) {
    stats_.reprogram_energy_j += config_.reprogram_energy(fresh.rows.size(), word_length_);
  } else {
    // Conservative default: the TCAM programming model (per cell, erase
    // both FeFETs plus one saturation write).
    stats_.reprogram_energy_j +=
        energy::ArrayEnergyModel{energy::ArrayParams{}}.tcam_program_energy(
            fresh.rows.size(), word_length_, fefet::PulseScheme{});
  }
  bank = std::move(fresh);
}

QueryResult ShardedNnIndex::query_one(std::span<const float> query, std::size_t k) const {
  if (live_rows_ == 0) throw std::logic_error{"ShardedNnIndex::query_one before add"};
  const std::size_t kk = std::min(std::max<std::size_t>(k, 1), live_rows_);

  // Banks that still hold live rows; each is asked for its own top-k.
  std::vector<std::size_t> live_banks;
  live_banks.reserve(banks_.size());
  for (std::size_t b = 0; b < banks_.size(); ++b) {
    if (banks_[b].live_count > 0) live_banks.push_back(b);
  }

  obs::Trace* const trace = obs::current_trace();
  std::vector<QueryResult> per_bank(live_banks.size());
  for (std::size_t i = 0; i < live_banks.size(); ++i) {
    const Bank& bank = banks_[live_banks[i]];
    obs::TraceSpan bank_span(trace, "bank-query");
    per_bank[i] = bank.engine->query_one(query, std::min(kk, bank.live_count));
    bank_span.note("bank", static_cast<double>(live_banks[i]));
    bank_span.note("candidates", static_cast<double>(per_bank[i].telemetry.candidates));
    bank_span.note("energy_j", per_bank[i].telemetry.energy_j);
  }

  // Hierarchical merge: repeatedly pop the bank head with the smallest
  // score, ties to the lower bank index. Scores compare as order_key
  // images, the order every bank ranks by: -0.0 == +0.0, NaN after +inf.
  // Within a bank the list is already the backend's native (latch) order;
  // across banks, global ids increase with bank index, so the tie-break
  // realizes the WTA low-index convention and the merged ranking is
  // bit-identical to the monolithic engine under kIdealSum.
  obs::TraceSpan merge_span(trace, "bank-merge");
  QueryResult result;
  result.neighbors.reserve(kk);
  std::vector<std::size_t> cursor(per_bank.size(), 0);
  for (std::size_t picked = 0; picked < kk; ++picked) {
    std::size_t best = per_bank.size();
    std::uint64_t best_key = 0;
    for (std::size_t i = 0; i < per_bank.size(); ++i) {
      if (cursor[i] >= per_bank[i].neighbors.size()) continue;
      const std::uint64_t key = order_key(per_bank[i].neighbors[cursor[i]].distance);
      if (best == per_bank.size() || key < best_key) {
        best = i;
        best_key = key;
      }
    }
    if (best == per_bank.size()) break;  // Fewer than kk live rows reachable.
    const Neighbor& local = per_bank[best].neighbors[cursor[best]];
    const Bank& bank = banks_[live_banks[best]];
    result.neighbors.push_back(
        Neighbor{bank.ids[local.index], local.label, local.distance});
    ++cursor[best];
  }
  result.label = majority_label(result.neighbors);

  // Aggregate telemetry: fanning across B banks senses and compares in
  // every bank, so counters sum (sense_events can exceed k by design).
  result.telemetry.banks_searched = per_bank.size();
  // Every bank runs the same engine type, hence the same distance kernel;
  // the first bank's tag stands for all of them.
  if (!per_bank.empty()) result.telemetry.kernel = per_bank.front().telemetry.kernel;
  for (const QueryResult& bank_result : per_bank) {
    result.telemetry.candidates += bank_result.telemetry.candidates;
    result.telemetry.sense_events += bank_result.telemetry.sense_events;
    result.telemetry.energy_j += bank_result.telemetry.energy_j;
  }
  merge_span.note("banks", static_cast<double>(per_bank.size()));
  merge_span.note("candidates", static_cast<double>(result.telemetry.candidates));
  merge_span.note("energy_j", result.telemetry.energy_j);
  return result;
}

std::string ShardedNnIndex::name() const {
  const std::string geometry =
      std::to_string(banks_.size()) + " banks x " + std::to_string(config_.bank_rows) +
      " rows";
  if (banks_.empty()) return "sharded (" + geometry + ")";
  return "sharded " + banks_.front().engine->name() + " (" + geometry + ")";
}

void ShardedNnIndex::save_state(serve::io::Writer& out) const {
  out.str("sharded-v1");
  out.u64(word_length_);
  out.u64(next_id_);
  out.u64(calibration_rows_.size());
  for (const auto& row : calibration_rows_) out.vec_f32(row);
  out.u64(banks_.size());
  for (const Bank& bank : banks_) {
    out.u64(bank.rows.size());
    for (const auto& row : bank.rows) out.vec_f32(row);
    out.vec_i32(bank.labels);
    out.u64(bank.ids.size());
    for (std::size_t id : bank.ids) out.u64(id);
    out.vec_u8(bank.live);
  }
}

void ShardedNnIndex::load_state(serve::io::Reader& in) {
  serve::io::expect_tag(in, "sharded-v1");
  clear();
  const std::uint64_t word_length = in.u64();
  const std::uint64_t next_id = in.u64();
  // Raw counts are validated against the remaining payload (each element
  // is at least a u64 length prefix) before any reserve.
  const std::size_t num_calibration = in.checked_count(in.u64(), 8);
  std::vector<std::vector<float>> calibration_rows;
  calibration_rows.reserve(num_calibration);
  for (std::size_t i = 0; i < num_calibration; ++i) {
    calibration_rows.push_back(in.vec_f32());
  }
  const std::size_t num_banks = in.checked_count(in.u64(), 8);
  if (num_banks > 0 && calibration_rows.empty()) {
    throw serve::io::SnapshotError{"sharded snapshot has banks but no calibration rows"};
  }
  if (!calibration_rows.empty()) calibrate(calibration_rows);
  word_length_ = word_length;
  for (std::size_t b = 0; b < num_banks; ++b) {
    Bank& bank = new_bank();
    const std::size_t num_rows = in.checked_count(in.u64(), 8);
    if (num_rows > config_.bank_rows) {
      throw serve::io::SnapshotError{"sharded snapshot bank exceeds bank_rows"};
    }
    bank.rows.reserve(num_rows);
    for (std::size_t r = 0; r < num_rows; ++r) bank.rows.push_back(in.vec_f32());
    bank.labels = in.vec_i32();
    const std::vector<std::uint64_t> ids = in.vec_u64();
    bank.ids.assign(ids.begin(), ids.end());
    bank.live = in.vec_u8();
    if (bank.labels.size() != num_rows || bank.ids.size() != num_rows ||
        bank.live.size() != num_rows) {
      throw serve::io::SnapshotError{"inconsistent snapshot payload: sharded bank "
                                     "row/label/id/valid counts disagree"};
    }
    for (std::size_t r = 0; r + 1 < bank.ids.size(); ++r) {
      if (bank.ids[r] >= bank.ids[r + 1]) {
        throw serve::io::SnapshotError{"sharded snapshot ids are not strictly increasing"};
      }
    }
    if (!bank.ids.empty() && bank.ids.back() >= next_id) {
      throw serve::io::SnapshotError{"sharded snapshot id exceeds next_id"};
    }
    // Replay the canonical construction: one add of the physical rows
    // (programming noise re-samples identically from the bank seed), then
    // re-gate the tombstoned validity latches.
    if (!bank.rows.empty()) bank.engine->add(bank.rows, bank.labels);
    for (std::size_t r = 0; r < bank.live.size(); ++r) {
      if (bank.live[r]) {
        ++bank.live_count;
      } else {
        bank.engine->erase(r);
      }
    }
    live_rows_ += bank.live_count;
  }
  next_id_ = next_id;
  stats_ = ShardStats{};  // Telemetry counters are not persisted by design.
}

std::unique_ptr<NnIndex> make_sharded(BankFactory bank_factory, ShardedConfig config) {
  return std::make_unique<ShardedNnIndex>(std::move(bank_factory), config);
}

}  // namespace mcam::search
