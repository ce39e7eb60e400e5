// Shard scaling micro-benchmark: ShardedNnIndex vs the monolithic engine.
//
// Asserts the tentpole invariant - the sharded index returns *bit-identical*
// labels, neighbor ids and scores to the monolithic engine under kIdealSum,
// including after an erase wave - at three bank sizes over the same rows,
// and reports single-query latency against the monolithic engine (a query
// asks the banks in turn on the calling thread, so the column shows what
// tiling and merging cost). Exits non-zero on any divergence, so CI runs
// it as a smoke step.
#include "bench_common.hpp"

#include "search/factory.hpp"
#include "search/sharded.hpp"

#include <chrono>
#include <iostream>

int main() {
  using namespace mcam;
  using Clock = std::chrono::steady_clock;

  constexpr std::size_t kRows = 1024;
  constexpr std::size_t kFeatures = 32;
  constexpr std::size_t kQueries = 48;
  constexpr std::size_t kTopK = 10;
  constexpr int kRepeats = 3;  // Best-of to damp scheduler noise.

  Rng rng{4242};
  std::vector<std::vector<float>> rows(kRows, std::vector<float>(kFeatures));
  std::vector<int> labels(kRows);
  for (std::size_t r = 0; r < kRows; ++r) {
    for (auto& v : rows[r]) v = static_cast<float>(rng.normal());
    labels[r] = static_cast<int>(r % 16);
  }
  std::vector<std::vector<float>> queries(kQueries, std::vector<float>(kFeatures));
  for (auto& q : queries) {
    for (auto& v : q) v = static_cast<float>(rng.normal());
  }

  search::EngineConfig config;
  config.num_features = kFeatures;
  const auto monolithic = search::make_index("mcam3", config);
  monolithic->add(rows, labels);
  // Erase a spread of ids so the identity check covers tombstones too.
  for (std::size_t id = 7; id < kRows; id += 13) (void)monolithic->erase(id);

  const auto reference = monolithic->query(queries, kTopK);

  const auto identical_to_reference = [&](const search::NnIndex& index) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const search::QueryResult result = index.query_one(queries[i], kTopK);
      if (result.label != reference[i].label ||
          result.neighbors.size() != reference[i].neighbors.size()) {
        return false;
      }
      for (std::size_t n = 0; n < result.neighbors.size(); ++n) {
        if (result.neighbors[n].index != reference[i].neighbors[n].index ||
            result.neighbors[n].distance != reference[i].neighbors[n].distance) {
          return false;
        }
      }
    }
    return true;
  };

  const auto time_queries = [&](const search::NnIndex& index) {
    double best_s = 1e30;
    for (int rep = 0; rep < kRepeats; ++rep) {
      const auto start = Clock::now();
      for (const auto& q : queries) (void)index.query_one(q, kTopK);
      const std::chrono::duration<double> elapsed = Clock::now() - start;
      best_s = std::min(best_s, elapsed.count());
    }
    return best_s;
  };

  const double monolithic_s = time_queries(*monolithic);
  bool all_identical = true;

  TextTable table{"Sharded top-" + std::to_string(kTopK) + " query cost by bank size (" +
                  std::to_string(kRows) + " rows)"};
  table.set_header({"engine", "bank_rows", "banks", "query time [us]", "vs monolithic",
                    "identical"});
  table.add_row({"monolithic", "-", "1", format_double(monolithic_s / kQueries * 1e6, 1),
                 "1.00x", "yes"});

  for (std::size_t bank_rows : {64u, 128u, 256u}) {
    search::EngineConfig sharded_config = config;
    sharded_config.bank_rows = bank_rows;
    const auto sharded = search::make_index("sharded-mcam3", sharded_config);
    sharded->add(rows, labels);
    for (std::size_t id = 7; id < kRows; id += 13) (void)sharded->erase(id);
    const std::size_t banks = dynamic_cast<const search::ShardedNnIndex&>(*sharded).num_banks();

    const bool identical = identical_to_reference(*sharded);
    all_identical = all_identical && identical;
    const double seconds = time_queries(*sharded);
    table.add_row({"sharded", std::to_string(bank_rows),
                   std::to_string(banks),
                   format_double(seconds / kQueries * 1e6, 1),
                   format_double(seconds / monolithic_s, 2) + "x",
                   identical ? "yes" : "NO"});
  }
  bench::emit(table, "shard_scaling");

  std::cout << "Check: every bank size returns bit-identical neighbors and scores to\n"
               "the monolithic engine (erase wave included) - tiling the rows into banks\n"
               "and merging their top-k lists change the wall clock, never the answer.\n"
               "\"vs monolithic\" is the sharded query time over the monolithic one: the\n"
               "per-bank query and merge overhead on one thread.\n";
  if (!all_identical) {
    std::cout << "FAIL: sharded results diverged from the monolithic engine\n";
    return 1;
  }
  return 0;
}
