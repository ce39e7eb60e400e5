// Parallel batched query execution over any NnIndex.
//
// The executor shards a query batch into contiguous ranges and runs each
// shard on its own std::thread. `query_one` implementations are const and
// share no mutable state, so results are bitwise identical to sequential
// execution regardless of the thread count - parallelism changes only the
// wall clock, never the answer (asserted by the batch-vs-sequential tests
// and the bench_batch_scaling micro-benchmark).
#pragma once

#include "search/index.hpp"

#include <cstddef>
#include <vector>

namespace mcam::search {

/// Resolves a requested worker count against the reported hardware
/// concurrency: an explicit request always wins; the default (0) resolves
/// to the hardware thread count, clamped to 1 when the host reports <= 1
/// core (or cannot report at all). Both parallel stages (BatchExecutor
/// and the serving runtime's worker pool behind serve::QueryService and
/// store::CollectionManager) resolve their default through this function.
/// When it returns 1, BatchExecutor runs inline with *no* thread spawned;
/// the pool still keeps its one worker thread, which its asynchronous
/// submit contract needs.
[[nodiscard]] std::size_t resolve_worker_count(std::size_t requested,
                                               std::size_t hardware_threads) noexcept;

/// `resolve_worker_count(0, std::thread::hardware_concurrency())`.
[[nodiscard]] std::size_t default_worker_count() noexcept;

/// Sharding knobs for BatchExecutor.
struct BatchOptions {
  std::size_t num_threads = 0;    ///< Worker count; 0 = hardware concurrency.
  std::size_t min_shard_size = 8; ///< Don't spawn a thread for fewer queries.
};

/// Shards query batches across worker threads.
class BatchExecutor {
 public:
  explicit BatchExecutor(BatchOptions options = BatchOptions{});

  /// Top-k query for every row of `batch`; result `i` matches `batch[i]`.
  /// Rethrows the first worker exception, if any.
  [[nodiscard]] std::vector<QueryResult> run(const NnIndex& index,
                                             std::span<const std::vector<float>> batch,
                                             std::size_t k) const;

  /// Worker count the executor resolves to for a batch of `batch_size`.
  [[nodiscard]] std::size_t threads_for(std::size_t batch_size) const;

  /// Options in use.
  [[nodiscard]] const BatchOptions& options() const noexcept { return options_; }

 private:
  BatchOptions options_;
};

}  // namespace mcam::search
