// The workload interface the load generator drives, and the four
// workloads of the end-to-end benchmark (README.md has the table and why
// each was chosen).
#pragma once

#include "search/index.hpp"
#include "serve/service.hpp"
#include "store/manager.hpp"

#include "samples.hpp"
#include "util/rng.hpp"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline constexpr std::size_t kTopK = 10;

enum class OpKind : std::uint8_t { kRead, kAdd, kErase, kExpire };

/// One request of a workload's traffic. Reads go through the serving
/// front; writes are synchronous calls.
struct Op {
  OpKind kind = OpKind::kRead;
  std::uint32_t target = 0;  ///< Collection (tenant) index.
  std::uint32_t query = 0;   ///< Read: row of the query table. Add: rows' rng stream.
  std::int32_t tag = -1;     ///< Read: predicate tag index; -1 = unfiltered.
  double pick = 0.0;         ///< Erase: uniform draw that chooses the victim.
};

/// A kind of op whose latency is reported on its own, and its share of
/// the workload's mix: latency_ms weighs each kind's median by it.
struct OpClass {
  std::string name;
  double share = 1.0;
};

/// A completed read, the same shape for both serving fronts.
struct Reply {
  mcam::serve::RequestStatus status = mcam::serve::RequestStatus::kOk;
  mcam::search::QueryResult result;
  mcam::store::FilterPath path = mcam::store::FilterPath::kNone;
};

/// The future of one submitted read, from either serving front.
class Pending {
 public:
  explicit Pending(std::future<mcam::store::StoreResponse> future)
      : future_(std::move(future)) {}
  explicit Pending(std::future<mcam::serve::QueryResponse> future)
      : future_(std::move(future)) {}

  [[nodiscard]] Reply take();

 private:
  std::variant<std::future<mcam::store::StoreResponse>, std::future<mcam::serve::QueryResponse>>
      future_;
};

/// One workload: a serving fleet behind CollectionManager or QueryService,
/// its traffic mix, its correctness gates, and its traced replay.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds a new fleet and returns the seconds spent creating
  /// collections, calibrating and adding the initial rows (the set-up unit
  /// `setup_s` takes the median of). With `serve` the new fleet replaces
  /// the serving one; without, it is discarded and the serving fleet is
  /// untouched.
  virtual double build(bool serve) = 0;
  /// Builds the standalone mirror (same specs, seed and rows, no serving
  /// front) that the gates and the traced replay query directly.
  virtual void build_mirror() = 0;

  /// Op number `index` of the workload's mix, drawn from `rng`.
  [[nodiscard]] virtual Op draw_op(mcam::Rng& rng, std::size_t index) const = 0;
  /// The kinds of op in the mix, and which one an op is.
  [[nodiscard]] virtual std::vector<OpClass> mix() const { return {OpClass{"read", 1.0}}; }
  [[nodiscard]] virtual std::size_t op_class(const Op&) const { return 0; }
  [[nodiscard]] virtual Pending submit(const Op& op) = 0;
  /// Performs a write op synchronously on the caller's thread.
  virtual void write(const Op& op);

  /// Gate on one completed OK read (`seq` numbers every read the load
  /// generator sent; `writes_before` counts the writes sent before it
  /// was submitted). By default every 16th reply is kept for
  /// verify_after_load.
  virtual void check(std::size_t seq, const Op& op, const Reply& reply,
                     std::size_t writes_before);
  /// Gates that run once the load phases are over. By default: every kept
  /// reply equals the mirror's answer.
  virtual void verify_after_load();
  /// The standalone mirror's answer to a read.
  [[nodiscard]] virtual mcam::search::QueryResult mirror_answer(const Op& op) const = 0;

  /// The fixed recall set and the exact Euclidean ids its answers are
  /// scored against.
  [[nodiscard]] virtual std::vector<Op> recall_set() = 0;
  [[nodiscard]] virtual std::vector<std::size_t> truth(const Op& op) const = 0;
  /// The query's cluster (the label top-1 accuracy is scored against), or
  /// -1 for a read that top-1 accuracy does not score.
  [[nodiscard]] virtual int cluster_of(const Op& op) const = 0;

  /// Persistence round trip through the front's own save/load into `dir`;
  /// each returns the seconds the save or load call took. `restore`
  /// replaces the restored fleet.
  virtual double save(const std::string& dir) = 0;
  virtual double restore(const std::string& dir) = 0;
  /// Answers a read from the restored fleet.
  [[nodiscard]] virtual Reply query_restored(const Op& op) = 0;

  /// True for the QueryService front (its layer is `serve`, not `store`).
  [[nodiscard]] virtual bool service_front() const { return false; }

  /// Replays `ops` sequentially against the mirror, timing each public
  /// call into each layer; calls `between` after each op.
  virtual void replay(std::span<const Op> ops, Samples& layers,
                      const std::function<void()>& between) = 0;

  /// Correctness gate failures so far (empty = every gate held).
  [[nodiscard]] const std::vector<std::string>& failures() const { return failures_; }

 protected:
  /// Records a gate failure (the first 32 messages are kept).
  void fail(std::string message);

 private:
  std::vector<std::pair<Op, mcam::search::QueryResult>> sampled_;
  std::vector<std::string> failures_;
};

/// Builds the named workload's inputs from `seed`; returns null for an
/// unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

/// True when two answers agree bit for bit (ids, labels and scores).
[[nodiscard]] bool same_answer(const mcam::search::QueryResult& a,
                               const mcam::search::QueryResult& b);

}  // namespace e2e
