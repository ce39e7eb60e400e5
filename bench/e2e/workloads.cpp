#include "workload.hpp"

#include "data.hpp"
#include "replay.hpp"

#include "search/factory.hpp"
#include "search/sharded.hpp"
#include "serve/snapshot.hpp"
#include "store/collection.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <limits>
#include <stdexcept>
#include <type_traits>

namespace e2e {

namespace {

using mcam::search::QueryResult;
using mcam::store::CollectionManager;

/// Worker threads of either serving front. They share the load
/// generator's CPU, and with one op in flight one of them runs at a time.
constexpr std::size_t kWorkers = 2;
/// The default gate keeps every kSampleEvery-th reply for the mirror check.
constexpr std::size_t kSampleEvery = 16;
/// Filter tags of filtered-churn, indexed by Op::tag.
constexpr std::array<const char*, 3> kTagNames{"rare", "mid", "common"};

mcam::store::Predicate predicate_of(const Op& op) {
  return op.tag < 0 ? mcam::store::Predicate{}
                    : mcam::store::Predicate::tag(kTagNames[static_cast<std::size_t>(op.tag)]);
}

mcam::search::EngineConfig engine_config(mcam::Rng& rng) {
  mcam::search::EngineConfig config;
  config.num_features = kFeatures;
  config.seed = rng();
  return config;
}

std::string describe(const Op& op) {
  std::string text =
      "read of query " + std::to_string(op.query) + " on collection " + std::to_string(op.target);
  if (op.tag >= 0) {
    text += std::string{" filtered by "} + kTagNames[static_cast<std::size_t>(op.tag)];
  }
  return text;
}

/// One collection of a manager workload: its engine spec and initial rows.
struct CollectionDef {
  std::string name;
  std::string spec;
  Points points;
  std::vector<std::vector<std::string>> tags;  ///< Empty = untagged rows.
  std::vector<std::uint64_t> expires;          ///< Empty = no TTLs.
};

/// Shared plumbing of the three CollectionManager workloads.
class ManagerWorkload : public Workload {
 public:
  double build(bool serve) override {
    if (serve) manager_.reset();
    mcam::store::ManagerConfig config;
    config.workers = kWorkers;
    auto manager = std::make_unique<CollectionManager>(config);
    const Clock::time_point start = Clock::now();
    for (const CollectionDef& def : defs_) {
      manager->create_collection(def.name, def.spec, base_);
      manager->calibrate(def.name, def.points.rows);
      manager->add(def.name, def.points.rows, def.points.labels, def.tags, def.expires);
    }
    const double seconds = seconds_since(start);
    if (serve) manager_ = std::move(manager);
    return seconds;
  }

  void build_mirror() override {
    mirror_.clear();
    scalers_.clear();
    for (const CollectionDef& def : defs_) {
      mirror_.push_back(make_collection(def));
      scalers_.push_back(mcam::encoding::FeatureScaler::fit_z_score(def.points.rows));
    }
  }

  [[nodiscard]] Pending submit(const Op& op) override {
    return Pending{manager_->submit(defs_[op.target].name, queries_.rows[op.query], kTopK,
                                    predicate_of(op))};
  }

  [[nodiscard]] QueryResult mirror_answer(const Op& op) const override {
    return mirror_.at(op.target)->query(queries_.rows[op.query], kTopK, predicate_of(op)).result;
  }

  [[nodiscard]] std::vector<std::size_t> truth(const Op& op) const override {
    return exact_knn(defs_[op.target].points.rows, queries_.rows[op.query], kTopK,
                     [](std::size_t) { return true; });
  }

  [[nodiscard]] int cluster_of(const Op& op) const override {
    return queries_.labels[op.query];
  }

  double save(const std::string& dir) override {
    const Clock::time_point start = Clock::now();
    manager_->save(dir);
    return seconds_since(start);
  }

  double restore(const std::string& dir) override {
    restored_.reset();
    mcam::store::ManagerConfig config;
    config.workers = kWorkers;
    restored_ = std::make_unique<CollectionManager>(config);
    const Clock::time_point start = Clock::now();
    restored_->load(dir);
    return seconds_since(start);
  }

  [[nodiscard]] Reply query_restored(const Op& op) override {
    return Pending{restored_->submit(defs_[op.target].name, queries_.rows[op.query], kTopK,
                                     predicate_of(op))}
        .take();
  }

  void replay(std::span<const Op> ops, Samples& layers,
              const std::function<void()>& between) override {
    for (const Op& op : ops) {
      replay_read(op, layers);
      between();
    }
  }

 protected:
  explicit ManagerWorkload(std::uint64_t seed) : rng_(seed), base_(engine_config(rng_)) {}

  [[nodiscard]] std::unique_ptr<mcam::store::Collection> make_collection(
      const CollectionDef& def) const {
    auto collection = std::make_unique<mcam::store::Collection>(def.name, def.spec, base_);
    collection->calibrate(def.points.rows);
    collection->add(def.points.rows, def.points.labels, def.tags, def.expires);
    return collection;
  }

  void replay_read(const Op& op, Samples& layers) {
    if (!replay_collection_read(*mirror_.at(op.target), scalers_.at(op.target),
                                queries_.rows[op.query], predicate_of(op), layers)) {
      fail("traced replay: the engine call answered differently from the collection on the " +
           describe(op));
    }
  }

  mcam::Rng rng_;
  Embeddings data_;
  mcam::search::EngineConfig base_;
  std::vector<CollectionDef> defs_;
  Points queries_;  ///< Every query the workload sends, indexed by Op::query.
  std::unique_ptr<CollectionManager> manager_;
  std::unique_ptr<CollectionManager> restored_;
  std::vector<std::unique_ptr<mcam::store::Collection>> mirror_;
  /// Per mirror collection: the z-score its two-stage engine encodes with.
  std::vector<mcam::encoding::FeatureScaler> scalers_;
};

// --- refine-tcam -------------------------------------------------------------

/// One 4096-row two-stage collection: the coarse TcamArray sweep is nearly
/// all of the service time. Read-only; a fresh query per request.
class RefineTcam final : public ManagerWorkload {
 public:
  explicit RefineTcam(std::uint64_t seed) : ManagerWorkload(seed) {
    defs_.push_back({"docs", "refine:coarse_bits=32,sig=itq,candidate_factor=64,fine=euclidean",
                     sample_points(data_, 4096, rng_), {}, {}});
    queries_ = sample_points(data_, kPool + kRecall, rng_);
  }

  [[nodiscard]] Op draw_op(mcam::Rng& rng, std::size_t) const override {
    Op op;
    op.query = static_cast<std::uint32_t>(rng.index(kPool));
    return op;
  }

  [[nodiscard]] std::vector<Op> recall_set() override {
    std::vector<Op> ops(kRecall);
    for (std::size_t i = 0; i < kRecall; ++i) ops[i].query = static_cast<std::uint32_t>(kPool + i);
    return ops;
  }

 private:
  static constexpr std::size_t kPool = 16384;
  static constexpr std::size_t kRecall = 512;
};

// --- tenants-skewed ----------------------------------------------------------

/// Eight small software-scan collections under Zipf tenant and query skew:
/// queueing, admission, promises and stats dominate; no CAM runs.
class TenantsSkewed final : public ManagerWorkload {
 public:
  explicit TenantsSkewed(std::uint64_t seed)
      : ManagerWorkload(seed), tenant_zipf_(kTenants, 1.1), query_zipf_(kPool, 0.9) {
    for (std::size_t t = 0; t < kTenants; ++t) {
      defs_.push_back({"tenant-" + std::to_string(t), "euclidean",
                       sample_points(data_, kRows, rng_), {}, {}});
    }
    queries_ = sample_points(data_, kTenants * kPool, rng_);
  }

  void build_mirror() override {
    ManagerWorkload::build_mirror();
    answers_.clear();
    for (std::size_t q = 0; q < queries_.rows.size(); ++q) {
      Op op;
      op.target = static_cast<std::uint32_t>(q / kPool);
      op.query = static_cast<std::uint32_t>(q);
      answers_.push_back(mirror_answer(op));
    }
  }

  [[nodiscard]] Op draw_op(mcam::Rng& rng, std::size_t) const override {
    Op op;
    op.target = static_cast<std::uint32_t>(tenant_zipf_(rng));
    op.query = static_cast<std::uint32_t>(op.target * kPool + query_zipf_(rng));
    return op;
  }

  /// Every reply must equal the precomputed direct answer, bit for bit.
  void check(std::size_t, const Op& op, const Reply& reply, std::size_t) override {
    if (!same_answer(reply.result, answers_[op.query])) {
      fail("served answer differs from the direct query_one answer on the " + describe(op));
    }
  }

  [[nodiscard]] std::vector<Op> recall_set() override {
    std::vector<Op> ops;
    for (std::size_t t = 0; t < kTenants; ++t) {
      for (std::size_t i = 0; i < kRecallPerTenant; ++i) {
        Op op;
        op.target = static_cast<std::uint32_t>(t);
        op.query = static_cast<std::uint32_t>(t * kPool + i);
        ops.push_back(op);
      }
    }
    return ops;
  }

 private:
  static constexpr std::size_t kTenants = 8;
  static constexpr std::size_t kRows = 1024;
  static constexpr std::size_t kPool = 512;
  static constexpr std::size_t kRecallPerTenant = 64;

  Zipf tenant_zipf_;
  Zipf query_zipf_;
  std::vector<QueryResult> answers_;  ///< Direct answer per pool query.
};

// --- filtered-churn ----------------------------------------------------------

/// The benchmark's own model of the filtered-churn collection: every row
/// ever added, its tags, TTL and when it died. Writes are sent in
/// schedule order from one thread, so the model and the collection agree
/// on every id.
class ChurnModel {
 public:
  static constexpr std::size_t kNotDead = std::numeric_limits<std::size_t>::max();

  struct Row {
    std::uint8_t tags = 0;         ///< Bit t = carries kTagNames[t].
    std::uint64_t expires = 0;     ///< Logical expiry tick; 0 = never.
    std::size_t dead_at = kNotDead;  ///< Writes sent up to the one that removed it.
  };

  /// A batch about to be added: rows plus what Collection::add takes.
  struct Batch {
    Points points;
    std::vector<std::vector<std::string>> tags;
    std::vector<std::uint64_t> expires;
    std::vector<std::uint8_t> masks;
  };

  [[nodiscard]] std::size_t size() const { return rows_.size(); }
  [[nodiscard]] const Row& row(std::size_t id) const { return rows_[id]; }
  /// Every row's vector, indexed by id.
  [[nodiscard]] const std::vector<std::vector<float>>& vectors() const { return vectors_; }
  [[nodiscard]] std::uint64_t tick() const { return tick_; }

  /// Numbers the write about to be sent.
  std::size_t begin_write() { return writes_++; }

  /// Appends a batch at the next ids; `erasable` rows may be erased.
  void append(const Batch& batch, bool erasable) {
    for (std::size_t r = 0; r < batch.points.rows.size(); ++r) {
      if (erasable) victims_.push_back(rows_.size());
      rows_.push_back(Row{batch.masks[r], batch.expires[r], kNotDead});
      vectors_.push_back(batch.points.rows[r]);
    }
  }

  /// Removes and returns the erase victim a uniform `pick` selects among
  /// the live erasable rows.
  std::size_t take_victim(double pick) {
    if (victims_.empty()) throw std::logic_error{"filtered-churn: no erasable row left"};
    const auto scaled = static_cast<std::size_t>(pick * static_cast<double>(victims_.size()));
    const std::size_t i = std::min(scaled, victims_.size() - 1);
    const std::size_t id = victims_[i];
    victims_[i] = victims_.back();
    victims_.pop_back();
    return id;
  }

  void kill(std::size_t id, std::size_t write) { rows_[id].dead_at = write + 1; }

  /// Advances the logical clock; returns the live rows that expire now.
  std::vector<std::size_t> advance() {
    ++tick_;
    std::vector<std::size_t> due;
    for (std::size_t id = 0; id < rows_.size(); ++id) {
      const Row& r = rows_[id];
      if (r.dead_at == kNotDead && r.expires != 0 && r.expires <= tick_) due.push_back(id);
    }
    std::erase_if(victims_, [&](std::size_t id) {
      return std::binary_search(due.begin(), due.end(), id);
    });
    return due;
  }

 private:
  std::vector<Row> rows_;
  std::vector<std::vector<float>> vectors_;
  std::vector<std::size_t> victims_;  ///< Live rows an erase may pick.
  std::uint64_t tick_ = 0;
  std::size_t writes_ = 0;
};

/// Tagged rows with TTLs under a read/write mix: filtered queries route
/// through the TCAM tag band (`rare`, `mid`) or the post-filter
/// (`common`) beside exclusive-lock adds, erases and expiries.
class FilteredChurn final : public ManagerWorkload {
 public:
  explicit FilteredChurn(std::uint64_t seed) : ManagerWorkload(seed), batch_rng_(rng_.fork(1)) {
    // The first half of the rows is pinned (no TTL, never erased) and row 0
    // carries every tag, so no predicate ever runs out of live rows.
    Batch pinned = make_batch(kRows / 2, 0, rng_, 0, false);
    pinned.tags[0] = {kTagNames.begin(), kTagNames.end()};
    pinned.masks[0] = 0b111;
    Batch churned = make_batch(kRows / 2, kRows / 2, rng_, 0, false);
    for (auto& expires : churned.expires) expires = 1 + rng_.index(kInitialTtl);
    initial_.append(pinned, false);
    initial_.append(churned, true);

    CollectionDef def{kName,
                      "refine:coarse_bits=32,sig=itq,tag_bits=32,candidate_factor=32,"
                      "fine=euclidean",
                      {}, {}, {}};
    for (const Batch* batch : {&pinned, &churned}) {
      for (std::size_t r = 0; r < batch->points.rows.size(); ++r) {
        def.points.rows.push_back(batch->points.rows[r]);
        def.points.labels.push_back(batch->points.labels[r]);
        def.tags.push_back(batch->tags[r]);
        def.expires.push_back(batch->expires[r]);
      }
    }
    defs_.push_back(std::move(def));
    queries_ = sample_points(data_, kPool + 4 * kRecallPerKind, rng_);

    // The op kinds come in a fixed order, the same for every seed, so that
    // every run adds, erases and expires the same number of rows at the
    // same points.
    for (std::size_t kind = 0; kind < kPattern.size(); ++kind) {
      kinds_.insert(kinds_.end(), kPattern[kind], kind);
    }
    mcam::Rng order{kPatternSeed};
    order.shuffle(kinds_);
  }

  double build(bool serve) override {
    if (serve) model_ = initial_;
    return ManagerWorkload::build(serve);
  }

  /// Every kPatternLength ops: 20% unfiltered reads, 20% reads filtered
  /// by each tag, 12% tagged adds of kBatch rows, 6% erases, 2% expiry
  /// ticks.
  [[nodiscard]] Op draw_op(mcam::Rng& rng, std::size_t index) const override {
    const std::size_t kind = kinds_[index % kinds_.size()];
    Op op;
    if (kind < 4) {
      op.query = static_cast<std::uint32_t>(rng.index(kPool));
      op.tag = static_cast<std::int32_t>(kind) - 1;
    } else if (kind == 4) {
      op.kind = OpKind::kAdd;
      op.query = static_cast<std::uint32_t>(rng());
    } else if (kind == 5) {
      op.kind = OpKind::kErase;
      op.pick = rng.uniform();
    } else {
      op.kind = OpKind::kExpire;
    }
    return op;
  }

  [[nodiscard]] std::vector<OpClass> mix() const override {
    std::vector<OpClass> out;
    const char* names[] = {"read", "read.rare", "read.mid", "read.common", "add", "erase", "expire"};
    for (std::size_t kind = 0; kind < kPattern.size(); ++kind) {
      out.push_back({names[kind], static_cast<double>(kPattern[kind]) /
                                      static_cast<double>(kinds_.size())});
    }
    return out;
  }

  [[nodiscard]] std::size_t op_class(const Op& op) const override {
    switch (op.kind) {
      case OpKind::kRead:
        return static_cast<std::size_t>(op.tag + 1);
      case OpKind::kAdd:
        return 4;
      case OpKind::kErase:
        return 5;
      case OpKind::kExpire:
        return 6;
    }
    return 0;
  }

  void write(const Op& op) override {
    apply(model_, op,
          Target{[&](const Batch& b) {
                   return manager_->add(kName, b.points.rows, b.points.labels, b.tags, b.expires);
                 },
                 [&](std::size_t id) { return manager_->erase(kName, id); },
                 [&](std::uint64_t tick) { return manager_->expire(kName, tick); }});
  }

  /// No served id may have been erased or expired before the query was
  /// submitted, and every filtered answer must satisfy its predicate.
  void check(std::size_t, const Op& op, const Reply& reply, std::size_t writes_before) override {
    for (const mcam::search::Neighbor& n : reply.result.neighbors) {
      if (n.index >= model_.size()) {
        fail("served id " + std::to_string(n.index) + " was never added (" + describe(op) + ")");
      } else if (model_.row(n.index).dead_at <= writes_before) {
        fail("served id " + std::to_string(n.index) + " was erased before the " + describe(op) +
             " was submitted");
      } else if (op.tag >= 0 && (model_.row(n.index).tags & (1u << op.tag)) == 0) {
        fail("served id " + std::to_string(n.index) + " does not satisfy the " + describe(op));
      }
    }
  }

  /// Writes mutate the fleet, so check() verifies every reply against the
  /// model instead of a mirror; only the traced replay builds one.
  void build_mirror() override {}

  [[nodiscard]] std::vector<Op> recall_set() override {
    std::vector<Op> ops;
    for (std::int32_t tag = -1; tag < static_cast<std::int32_t>(kTagNames.size()); ++tag) {
      for (std::size_t i = 0; i < kRecallPerKind; ++i) {
        Op op;
        op.tag = tag;
        op.query = static_cast<std::uint32_t>(kPool + ops.size());
        ops.push_back(op);
      }
    }
    return ops;
  }

  /// A filtered answer's majority label is the filter's doing as much as
  /// the search's: a `rare` read finds few rows of its own cluster, and how
  /// few depends on the seed. Only unfiltered reads are scored for top-1.
  [[nodiscard]] int cluster_of(const Op& op) const override {
    return op.tag < 0 ? ManagerWorkload::cluster_of(op) : -1;
  }

  [[nodiscard]] std::vector<std::size_t> truth(const Op& op) const override {
    return exact_knn(model_.vectors(), queries_.rows[op.query], kTopK, [&](std::size_t id) {
      const ChurnModel::Row& r = model_.row(id);
      return r.dead_at == ChurnModel::kNotDead && (op.tag < 0 || (r.tags & (1u << op.tag)) != 0);
    });
  }

  /// Replays reads and writes in schedule order on a fresh mirror.
  void replay(std::span<const Op> ops, Samples& layers,
              const std::function<void()>& between) override {
    ManagerWorkload::build_mirror();
    ChurnModel model = initial_;
    mcam::store::Collection& collection = *mirror_.front();
    const auto timed = [&](const char* name, auto&& call) {
      const Clock::time_point start = Clock::now();
      const auto result = call();
      layers.add_time(name, seconds_since(start));
      return result;
    };
    const Target target{
        [&](const Batch& b) {
          return timed("store.add", [&] {
            return collection.add(b.points.rows, b.points.labels, b.tags, b.expires);
          });
        },
        [&](std::size_t id) {
          return timed("store.erase", [&] { return collection.erase(id); });
        },
        [&](std::uint64_t tick) {
          return timed("store.expire", [&] { return collection.expire(tick); });
        }};
    for (const Op& op : ops) {
      if (op.kind == OpKind::kRead) {
        replay_read(op, layers);
      } else {
        apply(model, op, target);
      }
      between();
    }
  }

 private:
  using Batch = ChurnModel::Batch;

  static constexpr const char* kName = "catalog";
  static constexpr std::size_t kRows = 2048;
  static constexpr std::size_t kBatch = 8;
  static constexpr std::size_t kPool = 4096;
  static constexpr std::size_t kRecallPerKind = 128;
  static constexpr std::uint64_t kInitialTtl = 100;  ///< Initial TTLs in [1, kInitialTtl].
  static constexpr std::uint64_t kAddTtl = 50;       ///< Added TTLs: now + [1, kAddTtl].
  static constexpr std::array<double, 3> kTagShare{0.02, 0.10, 0.50};
  /// Ops of each kind (unfiltered read, read per tag, add, erase, expire)
  /// in every kPatternLength ops, and the seed of their fixed order.
  static constexpr std::array<std::size_t, 7> kPattern{10, 10, 10, 10, 6, 3, 1};
  static constexpr std::uint64_t kPatternSeed = 0x5eed;

  /// A uniform draw that depends on a row id alone: a row's tags and
  /// whether it has a TTL are the same for every seed, and so is the
  /// number of rows per tag.
  static double id_draw(std::size_t id, std::size_t stream) {
    return mcam::Rng{(static_cast<std::uint64_t>(id) << 2) | stream}.uniform();
  }

  /// `n` rows with ids from `first`, tagged by id with kTagShare; with
  /// `ttls`, half of them (by id) get a TTL of now + [1, kAddTtl].
  Batch make_batch(std::size_t n, std::size_t first, mcam::Rng& rng, std::uint64_t now,
                   bool ttls) const {
    Batch batch;
    batch.points = sample_points(data_, n, rng);
    for (std::size_t id = first; id < first + n; ++id) {
      std::vector<std::string> tags;
      std::uint8_t mask = 0;
      for (std::size_t t = 0; t < kTagNames.size(); ++t) {
        if (id_draw(id, t) < kTagShare[t]) {
          tags.emplace_back(kTagNames[t]);
          mask = static_cast<std::uint8_t>(mask | (1u << t));
        }
      }
      batch.tags.push_back(std::move(tags));
      batch.masks.push_back(mask);
      batch.expires.push_back(ttls && id_draw(id, 3) < 0.5 ? now + 1 + rng.index(kAddTtl) : 0);
    }
    return batch;
  }

  /// The three writes, bound to a CollectionManager or a standalone
  /// Collection.
  struct Target {
    std::function<std::size_t(const Batch&)> add;
    std::function<bool(std::size_t)> erase;
    std::function<std::size_t(std::uint64_t)> expire;
  };

  /// Applies one write op against `target`, keeping `model` in step.
  void apply(ChurnModel& model, const Op& op, const Target& target) {
    const std::size_t write = model.begin_write();
    switch (op.kind) {
      case OpKind::kAdd: {
        mcam::Rng rng = mcam::Rng{batch_rng_}.fork(op.query);
        const Batch batch = make_batch(kBatch, model.size(), rng, model.tick(), true);
        const std::size_t first = target.add(batch);
        if (first != model.size()) fail("add returned first id " + std::to_string(first));
        model.append(batch, true);
        break;
      }
      case OpKind::kErase: {
        const std::size_t id = model.take_victim(op.pick);
        if (!target.erase(id)) fail("erase of live id " + std::to_string(id) + " returned false");
        model.kill(id, write);
        break;
      }
      case OpKind::kExpire: {
        const std::vector<std::size_t> due = model.advance();
        const std::size_t expired = target.expire(model.tick());
        if (expired != due.size()) {
          fail("expire at tick " + std::to_string(model.tick()) + " removed " +
               std::to_string(expired) + " rows, expected " + std::to_string(due.size()));
        }
        for (std::size_t id : due) model.kill(id, write);
        break;
      }
      case OpKind::kRead:
        throw std::logic_error{"apply: not a write"};
    }
  }

  mcam::Rng batch_rng_;  ///< Root of the add batches (forked per op).
  std::vector<std::size_t> kinds_;  ///< The op kinds' fixed order.
  ChurnModel initial_;
  ChurnModel model_;
};

// --- mcam-variation ----------------------------------------------------------

/// The paper's 3-bit MCAM under Vth variation behind QueryService, sharded
/// into 128-row banks: every cell leaves the nominal LUT for the analog
/// model, and each query fans out across 16 banks and merges.
class McamVariation final : public Workload {
 public:
  explicit McamVariation(std::uint64_t seed) : rng_(seed), base_(engine_config(rng_)) {
    points_ = sample_points(data_, kRows, rng_);
    queries_ = sample_points(data_, kPool + kRecall, rng_);
  }

  double build(bool serve) override {
    if (serve) {
      service_.reset();
      index_.reset();
    }
    const Clock::time_point start = Clock::now();
    std::unique_ptr<mcam::search::NnIndex> index = build_index();
    const double seconds = seconds_since(start);
    if (serve) {
      index_ = std::move(index);
      mcam::serve::QueryServiceConfig config;
      config.workers = kWorkers;
      service_ = std::make_unique<mcam::serve::QueryService>(*index_, config);
    }
    return seconds;
  }

  void build_mirror() override { mirror_ = build_index(); }

  [[nodiscard]] Op draw_op(mcam::Rng& rng, std::size_t) const override {
    Op op;
    op.query = static_cast<std::uint32_t>(rng.index(kPool));
    return op;
  }

  [[nodiscard]] Pending submit(const Op& op) override {
    return Pending{service_->submit(queries_.rows[op.query], kTopK)};
  }

  [[nodiscard]] QueryResult mirror_answer(const Op& op) const override {
    return mirror_->query_one(queries_.rows[op.query], kTopK);
  }

  [[nodiscard]] std::vector<Op> recall_set() override {
    std::vector<Op> ops(kRecall);
    for (std::size_t i = 0; i < kRecall; ++i) ops[i].query = static_cast<std::uint32_t>(kPool + i);
    return ops;
  }

  [[nodiscard]] std::vector<std::size_t> truth(const Op& op) const override {
    return exact_knn(points_.rows, queries_.rows[op.query], kTopK,
                     [](std::size_t) { return true; });
  }

  [[nodiscard]] int cluster_of(const Op& op) const override {
    return queries_.labels[op.query];
  }

  double save(const std::string& dir) override {
    const Clock::time_point start = Clock::now();
    mcam::serve::save_file(*index_, kSpec, base_, dir + "/index.snap");
    return seconds_since(start);
  }

  double restore(const std::string& dir) override {
    restored_.reset();
    const Clock::time_point start = Clock::now();
    restored_ = mcam::serve::load_file(dir + "/index.snap");
    return seconds_since(start);
  }

  [[nodiscard]] Reply query_restored(const Op& op) override {
    Reply reply;
    reply.result = restored_->query_one(queries_.rows[op.query], kTopK);
    return reply;
  }

  [[nodiscard]] bool service_front() const override { return true; }

  void replay(std::span<const Op> ops, Samples& layers,
              const std::function<void()>& between) override {
    const auto& sharded = dynamic_cast<const mcam::search::ShardedNnIndex&>(*mirror_);
    for (const Op& op : ops) {
      replay_sharded_read(sharded, queries_.rows[op.query], layers);
      between();
    }
  }

 private:
  static constexpr const char* kSpec =
      "sharded-mcam3:bank_rows=128,shard_workers=1,vth_sigma=0.05";
  static constexpr std::size_t kRows = 2048;
  static constexpr std::size_t kPool = 16384;
  /// Twice the other workloads' recall set: recall under variation is
  /// about 0.4, so each read's recall varies more.
  static constexpr std::size_t kRecall = 1024;

  [[nodiscard]] std::unique_ptr<mcam::search::NnIndex> build_index() const {
    auto index = mcam::search::make_index(kSpec, base_);
    index->calibrate(points_.rows);
    index->add(points_.rows, points_.labels);
    return index;
  }

  mcam::Rng rng_;
  Embeddings data_;
  mcam::search::EngineConfig base_;
  Points points_;
  Points queries_;
  std::unique_ptr<mcam::search::NnIndex> index_;
  std::unique_ptr<mcam::serve::QueryService> service_;  ///< Borrows index_.
  std::unique_ptr<mcam::search::NnIndex> mirror_;
  std::unique_ptr<mcam::search::NnIndex> restored_;
};

}  // namespace

Reply Pending::take() {
  return std::visit(
      [](auto& future) {
        auto response = future.get();
        Reply reply;
        reply.status = response.status;
        if constexpr (std::is_same_v<decltype(response), mcam::store::StoreResponse>) {
          reply.result = std::move(response.result.result);
          reply.path = response.result.path;
        } else {
          reply.result = std::move(response.result);
        }
        return reply;
      },
      future_);
}

void Workload::write(const Op&) { throw std::logic_error{"read-only workload"}; }

void Workload::check(std::size_t seq, const Op& op, const Reply& reply, std::size_t) {
  if (seq % kSampleEvery == 0) sampled_.emplace_back(op, reply.result);
}

void Workload::verify_after_load() {
  for (const auto& [op, served] : sampled_) {
    if (!same_answer(served, mirror_answer(op))) {
      fail("served answer differs from the mirror's on the " + describe(op));
    }
  }
  sampled_.clear();
}

void Workload::fail(std::string message) {
  if (failures_.size() < 32) failures_.push_back(std::move(message));
}

bool same_answer(const QueryResult& a, const QueryResult& b) {
  if (a.label != b.label || a.neighbors.size() != b.neighbors.size()) return false;
  for (std::size_t i = 0; i < a.neighbors.size(); ++i) {
    const mcam::search::Neighbor& x = a.neighbors[i];
    const mcam::search::Neighbor& y = b.neighbors[i];
    if (x.index != y.index || x.label != y.label || x.distance != y.distance) return false;
  }
  return true;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "refine-tcam") return std::make_unique<RefineTcam>(seed);
  if (name == "mcam-variation") return std::make_unique<McamVariation>(seed);
  if (name == "tenants-skewed") return std::make_unique<TenantsSkewed>(seed);
  if (name == "filtered-churn") return std::make_unique<FilteredChurn>(seed);
  return nullptr;
}

}  // namespace e2e
