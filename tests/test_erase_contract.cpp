// The NnIndex::erase contract, pinned across every factory backend:
// erase(live id) tombstones and returns true, erase(tombstoned id)
// returns false, erase(never-added id) throws std::out_of_range - and
// the sharded layer preserves exactly those semantics across bank
// compaction, where a tombstoned id's physical row no longer exists in
// any bank.
#include "search/factory.hpp"

#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace mcam::search {
namespace {

constexpr std::size_t kRows = 24;
constexpr std::size_t kFeatures = 8;

struct Data {
  std::vector<std::vector<float>> rows;
  std::vector<int> labels;
};

Data make_data(std::size_t n) {
  Data data;
  Rng rng{91};
  for (std::size_t r = 0; r < n; ++r) {
    std::vector<float> v(kFeatures);
    for (auto& x : v) x = static_cast<float>(rng.normal(static_cast<double>(r % 4), 1.0));
    data.rows.push_back(std::move(v));
    data.labels.push_back(static_cast<int>(r % 4));
  }
  return data;
}

// Every registered engine shape: monolithic CAMs, software metrics, the
// sharded tiling (with banks small enough that compaction runs), and the
// two-stage pipeline with and without a tag band.
const std::vector<std::string> kSpecs = {
    "mcam3",
    "mcam2",
    "mcam:bits=4",
    "tcam-lsh",
    "cosine",
    "euclidean",
    "manhattan",
    "linf",
    "sharded-mcam3:bank_rows=4",
    "sharded-euclidean:bank_rows=4",
    "refine:coarse_bits=32,fine=euclidean",
    "refine:coarse_bits=32,tag_bits=8,fine=sharded-mcam3:bank_rows=8",
};

TEST(EraseContract, UniformAcrossEveryFactoryBackend) {
  const Data data = make_data(kRows);
  EngineConfig config;
  config.num_features = kFeatures;
  for (const std::string& spec : kSpecs) {
    SCOPED_TRACE(spec);
    auto index = make_index(spec, config);
    index->add(data.rows, data.labels);
    ASSERT_EQ(index->size(), kRows);

    EXPECT_TRUE(index->erase(3));            // Live -> tombstoned.
    EXPECT_FALSE(index->erase(3));           // Already tombstoned.
    EXPECT_FALSE(index->erase(3));           // Stays false, never throws.
    EXPECT_EQ(index->size(), kRows - 1);

    EXPECT_THROW((void)index->erase(kRows), std::out_of_range);      // Next id.
    EXPECT_THROW((void)index->erase(kRows + 100), std::out_of_range);
    EXPECT_EQ(index->size(), kRows - 1);  // A throwing erase mutated nothing.

    // The tombstoned row never comes back in a query.
    const QueryResult result = index->query_one(data.rows[3], kRows);
    for (const auto& neighbor : result.neighbors) EXPECT_NE(neighbor.index, 3u);
  }
}

TEST(EraseContract, ShardedCompactionKeepsEraseSemantics) {
  const Data data = make_data(16);
  EngineConfig config;
  config.num_features = kFeatures;
  // 4-row banks + the default compact_dead_fraction = 0.5: the third
  // erase in a bank exceeds the dead fraction and rebuilds it with only
  // the live rows, so ids 0-2 stop existing physically anywhere.
  auto index = make_index("sharded-euclidean:bank_rows=4", config);
  index->add(data.rows, data.labels);

  EXPECT_TRUE(index->erase(0));
  EXPECT_TRUE(index->erase(1));
  EXPECT_TRUE(index->erase(2));  // Triggers compaction of bank 0.

  // Compacted-away ids are *tombstoned*, not unknown: false, not a throw.
  EXPECT_FALSE(index->erase(0));
  EXPECT_FALSE(index->erase(1));
  EXPECT_FALSE(index->erase(2));

  // The bank's survivor is still live and erasable; erasing it empties
  // the bank (released entirely), after which it too reads as tombstoned.
  EXPECT_TRUE(index->erase(3));
  EXPECT_FALSE(index->erase(3));

  // Never-added ids still throw - compaction must not blur the
  // distinction between "erased" and "never existed".
  EXPECT_THROW((void)index->erase(16), std::out_of_range);
  EXPECT_EQ(index->size(), 12u);
}

}  // namespace
}  // namespace mcam::search
