// Shard-merge invariants: ShardedNnIndex over any kIdealSum backend must
// be bit-identical to the monolithic engine (labels, neighbor ids, scores,
// also after interleaved add/erase), tombstone/compaction semantics,
// bank-boundary tie-breaks, capacity bounds, spec-string parsing, and the
// banks_searched telemetry.
#include "search/sharded.hpp"

#include "cam/array.hpp"
#include "cam/tcam.hpp"
#include "mann/memory.hpp"
#include "search/batch.hpp"
#include "search/engine.hpp"
#include "search/factory.hpp"
#include "serve/io.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

namespace mcam::search {
namespace {

struct Data {
  std::vector<std::vector<float>> rows;
  std::vector<int> labels;
  std::vector<std::vector<float>> queries;
};

Data make_data(std::size_t n, std::size_t dim, std::size_t num_queries,
               std::uint64_t seed) {
  Data data;
  Rng rng{seed};
  const auto sample = [&](int cls) {
    std::vector<float> v(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      v[i] = static_cast<float>(rng.normal(cls * 1.5 + (i % 3) * 0.3, 0.8));
    }
    return v;
  };
  for (std::size_t r = 0; r < n; ++r) {
    const int cls = static_cast<int>(r % 4);
    data.rows.push_back(sample(cls));
    data.labels.push_back(cls);
  }
  for (std::size_t q = 0; q < num_queries; ++q) {
    data.queries.push_back(sample(static_cast<int>(q % 4)));
  }
  return data;
}

/// Bit-identical comparison of two query results (the acceptance bar for
/// the shard merge under kIdealSum).
void expect_identical(const QueryResult& sharded, const QueryResult& monolithic,
                      const std::string& context) {
  EXPECT_EQ(sharded.label, monolithic.label) << context;
  ASSERT_EQ(sharded.neighbors.size(), monolithic.neighbors.size()) << context;
  for (std::size_t i = 0; i < monolithic.neighbors.size(); ++i) {
    EXPECT_EQ(sharded.neighbors[i].index, monolithic.neighbors[i].index)
        << context << " rank " << i;
    EXPECT_EQ(sharded.neighbors[i].label, monolithic.neighbors[i].label)
        << context << " rank " << i;
    EXPECT_EQ(sharded.neighbors[i].distance, monolithic.neighbors[i].distance)
        << context << " rank " << i;  // Exact: same conductance sums.
  }
}

/// Every backend key the registry offers monolithically.
const std::vector<std::string>& backend_keys() {
  static const std::vector<std::string> keys{
      "mcam3", "mcam2", "mcam", "tcam-lsh", "cosine", "euclidean", "manhattan", "linf"};
  return keys;
}

TEST(ShardedIdentity, TopKMatchesMonolithicForEveryBackend) {
  // Property: for random data and random bank geometry, the sharded index
  // returns exactly the monolithic ranking under kIdealSum. Per-bank
  // conductances are globally comparable, and the bank-index tie-break
  // equals the global low-id WTA convention.
  const Data data = make_data(90, 8, 6, 101);
  Rng geometry_rng{77};
  for (const std::string& key : backend_keys()) {
    const std::size_t bank_rows = 1 + geometry_rng.index(40);
    EngineConfig config;
    config.num_features = 8;
    auto monolithic = make_index(key, config);
    EngineConfig sharded_config = config;
    sharded_config.bank_rows = bank_rows;
    auto sharded = make_index("sharded-" + key, sharded_config);

    monolithic->add(data.rows, data.labels);
    sharded->add(data.rows, data.labels);
    EXPECT_EQ(sharded->size(), monolithic->size()) << key;

    for (const auto& q : data.queries) {
      for (std::size_t k : {std::size_t{1}, std::size_t{5}, std::size_t{90}}) {
        expect_identical(sharded->query_one(q, k), monolithic->query_one(q, k),
                         key + " bank_rows=" + std::to_string(bank_rows) +
                             " k=" + std::to_string(k));
      }
    }
  }
}

TEST(ShardedIdentity, Acceptance500RowsEightBanksWithInterleavedAddErase) {
  // Acceptance criterion: 500 rows in 64-row banks (8 banks), interleaved
  // add/erase, still bit-identical to the monolithic engine, with
  // banks_searched reported.
  const Data data = make_data(500, 8, 5, 103);
  for (const std::string& key : {std::string{"mcam3"}, std::string{"euclidean"}}) {
    EngineConfig config;
    config.num_features = 8;
    auto monolithic = make_index(key, config);
    EngineConfig sharded_config = config;
    sharded_config.bank_rows = 64;
    auto sharded = make_index("sharded-" + key, sharded_config);

    const std::span<const std::vector<float>> rows{data.rows};
    const std::span<const int> labels{data.labels};
    // First wave: 300 rows, then a spread of erases, then the remaining
    // 200 rows, then a second erase wave.
    monolithic->add(rows.subspan(0, 300), labels.subspan(0, 300));
    sharded->add(rows.subspan(0, 300), labels.subspan(0, 300));
    Rng erase_rng{5};
    std::set<std::size_t> erased;
    for (std::size_t e = 0; e < 70; ++e) {
      const std::size_t id = erase_rng.index(300);
      EXPECT_EQ(monolithic->erase(id), sharded->erase(id)) << key;
      erased.insert(id);
    }
    monolithic->add(rows.subspan(300), labels.subspan(300));
    sharded->add(rows.subspan(300), labels.subspan(300));
    for (std::size_t e = 0; e < 60; ++e) {
      const std::size_t id = erase_rng.index(500);
      EXPECT_EQ(monolithic->erase(id), sharded->erase(id)) << key;
      erased.insert(id);
    }
    const std::size_t live = 500 - erased.size();
    EXPECT_EQ(monolithic->size(), live) << key;
    EXPECT_EQ(sharded->size(), live) << key;

    for (const auto& q : data.queries) {
      for (std::size_t k : {std::size_t{1}, std::size_t{13}, live}) {
        const QueryResult s = sharded->query_one(q, k);
        expect_identical(s, monolithic->query_one(q, k),
                         key + " interleaved k=" + std::to_string(k));
        // Every erased id is gone from even the full-size ranking.
        for (const Neighbor& n : s.neighbors) {
          EXPECT_FALSE(erased.count(n.index)) << key << " id " << n.index;
        }
        EXPECT_GE(s.telemetry.banks_searched, 7u) << key;  // 8 banks, maybe compacted.
        EXPECT_EQ(s.telemetry.candidates, live) << key;
      }
    }
  }
}

TEST(ShardedIdentity, MeasuredTableBanksMatchOneTableArray) {
  // A measured table is one McamArrayConfig field, so a table-backed
  // McamNnEngine shards like any other MCAM bank.
  const Data data = make_data(40, 6, 4, 139);
  cam::McamArrayConfig table_config;
  table_config.level_map = fefet::LevelMap{2};
  std::vector<double> values(16);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 1e-9 * std::exp(0.3 * static_cast<double>((i * 7) % 16));
  }
  table_config.lut =
      std::make_shared<const cam::ConductanceLut>(cam::ConductanceLut::from_values(4, values));
  ShardedConfig config;
  config.bank_rows = 8;
  ShardedNnIndex sharded{[&] { return std::make_unique<McamNnEngine>(table_config); }, config};
  McamNnEngine monolithic{table_config};
  sharded.add(data.rows, data.labels);
  monolithic.add(data.rows, data.labels);
  ASSERT_TRUE(sharded.erase(9));
  ASSERT_TRUE(monolithic.erase(9));
  EXPECT_EQ(sharded.num_banks(), 5u);
  for (const auto& q : data.queries) {
    expect_identical(sharded.query_one(q, 5), monolithic.query_one(q, 5), "measured table");
  }
}

TEST(ShardedMutation, TombstoneSemanticsAndMonotoneTelemetry) {
  const Data data = make_data(40, 6, 2, 107);
  ShardedConfig config;
  config.bank_rows = 8;
  ShardedNnIndex index{[] { return std::make_unique<SoftwareNnEngine>("euclidean"); },
                       config};
  index.add(data.rows, data.labels);
  EXPECT_EQ(index.num_banks(), 5u);
  EXPECT_EQ(index.stats().banks_allocated, 5u);

  EXPECT_TRUE(index.erase(11));
  EXPECT_FALSE(index.erase(11));  // Idempotent: already a tombstone.
  EXPECT_EQ(index.size(), data.rows.size() - 1);
  EXPECT_THROW((void)index.erase(data.rows.size()), std::out_of_range);

  // Telemetry counters only ever grow (until clear).
  ShardStats last = index.stats();
  Rng rng{9};
  for (std::size_t e = 0; e < 30; ++e) {
    (void)index.erase(rng.index(data.rows.size()));
    const ShardStats& now = index.stats();
    EXPECT_GE(now.compactions, last.compactions);
    EXPECT_GE(now.rows_reprogrammed, last.rows_reprogrammed);
    EXPECT_GE(now.reprogram_energy_j, last.reprogram_energy_j);
    last = now;
  }
  // A query never returns a dead id and size() tracks the survivors.
  const QueryResult result = index.query_one(data.queries.front(), index.size());
  EXPECT_EQ(result.neighbors.size(), index.size());

  index.clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.num_banks(), 0u);
  EXPECT_EQ(index.stats().compactions, 0u);
}

TEST(ShardedMutation, CompactionReprogramsAndDropsEmptyBanks) {
  const Data data = make_data(8, 4, 1, 109);
  ShardedConfig config;
  config.bank_rows = 4;  // Two banks of four.
  config.compact_dead_fraction = 0.5;
  config.reprogram_energy = [](std::size_t rows, std::size_t cols) {
    return static_cast<double>(rows * cols);  // Countable fake model.
  };
  ShardedNnIndex index{[] { return std::make_unique<SoftwareNnEngine>("euclidean"); },
                       config};
  index.add(data.rows, data.labels);
  ASSERT_EQ(index.num_banks(), 2u);

  // Kill 3 of bank 0's 4 rows: at 3/4 > 1/2 dead the bank compacts down
  // to its single survivor (reprogram energy = 1 row x 4 cells).
  EXPECT_TRUE(index.erase(0));
  EXPECT_TRUE(index.erase(1));
  EXPECT_TRUE(index.erase(2));
  EXPECT_EQ(index.stats().compactions, 1u);
  EXPECT_EQ(index.stats().rows_reprogrammed, 1u);
  EXPECT_DOUBLE_EQ(index.stats().reprogram_energy_j, 4.0);
  EXPECT_EQ(index.num_banks(), 2u);

  // Killing the survivor empties the bank, which is dropped outright.
  EXPECT_TRUE(index.erase(3));
  EXPECT_EQ(index.num_banks(), 1u);
  EXPECT_EQ(index.size(), 4u);
  // Ids 4..7 (bank 1) still resolve after the drop.
  const QueryResult result = index.query_one(data.queries.front(), 4);
  for (const Neighbor& n : result.neighbors) EXPECT_GE(n.index, 4u);
  // Erasing a compacted-away id reports "already erased", not an error.
  EXPECT_FALSE(index.erase(2));
}

TEST(ShardedMutation, WholeBankReleaseKeepsIdMappingEraseAndQueriesCorrect) {
  // Regression for the whole-bank release path: compact() erases an
  // emptied bank from banks_, shifting every later bank index. The
  // id -> bank mapping, erase semantics, queries, and a snapshot
  // round-trip must all stay correct for ids both older and newer than
  // the released bank.
  const Data data = make_data(24, 4, 2, 151);
  EngineConfig config;
  config.num_features = 4;
  config.bank_rows = 8;  // Banks: ids [0,8), [8,16), [16,24).
  auto index = make_index("sharded-euclidean", config);
  index->add(data.rows, data.labels);
  auto& sharded = dynamic_cast<ShardedNnIndex&>(*index);
  ASSERT_EQ(sharded.num_banks(), 3u);
  EXPECT_EQ(sharded.bank_of(3), 0u);
  EXPECT_EQ(sharded.bank_of(12), 1u);
  EXPECT_EQ(sharded.bank_of(20), 2u);

  // Erase the middle bank to empty: it must be released outright.
  for (std::size_t id = 8; id < 16; ++id) EXPECT_TRUE(index->erase(id));
  ASSERT_EQ(sharded.num_banks(), 2u);
  EXPECT_EQ(index->size(), 16u);

  // The mapping re-resolves across the shifted bank indices: older ids
  // stay in bank 0, newer ids now live at bank index 1, released ids map
  // nowhere.
  EXPECT_EQ(sharded.bank_of(3), 0u);
  for (std::size_t id = 8; id < 16; ++id) {
    EXPECT_EQ(sharded.bank_of(id), sharded.num_banks()) << id;
  }
  EXPECT_EQ(sharded.bank_of(20), 1u);

  // Erase semantics across the shift: released ids report "already
  // erased" (never out_of_range, never a mis-mapped live row); older and
  // newer ids still tombstone exactly once.
  EXPECT_FALSE(index->erase(12));
  EXPECT_TRUE(index->erase(2));
  EXPECT_FALSE(index->erase(2));
  EXPECT_TRUE(index->erase(21));
  EXPECT_FALSE(index->erase(21));
  EXPECT_THROW((void)index->erase(24), std::out_of_range);
  EXPECT_EQ(index->size(), 14u);

  // Queries only ever surface surviving ids, identical to a monolithic
  // engine with the same erase history.
  auto monolithic = make_index("euclidean", EngineConfig{});
  monolithic->add(data.rows, data.labels);
  for (std::size_t id : {std::size_t{8},  std::size_t{9},  std::size_t{10},
                         std::size_t{11}, std::size_t{12}, std::size_t{13},
                         std::size_t{14}, std::size_t{15}, std::size_t{2},
                         std::size_t{21}}) {
    ASSERT_TRUE(monolithic->erase(id));
  }
  for (const auto& q : data.queries) {
    expect_identical(index->query_one(q, 14), monolithic->query_one(q, 14),
                     "post-release query");
  }

  // And the state snapshot-restores with the released bank still gone.
  serve::io::Writer writer;
  index->save_state(writer);
  auto restored = make_index("sharded-euclidean", config);
  serve::io::Reader reader{writer.buffer()};
  restored->load_state(reader);
  auto& restored_sharded = dynamic_cast<ShardedNnIndex&>(*restored);
  EXPECT_EQ(restored_sharded.num_banks(), 2u);
  EXPECT_EQ(restored_sharded.bank_of(3), 0u);
  EXPECT_EQ(restored_sharded.bank_of(12), restored_sharded.num_banks());
  EXPECT_EQ(restored_sharded.bank_of(20), 1u);
  EXPECT_FALSE(restored->erase(12));
  for (const auto& q : data.queries) {
    expect_identical(restored->query_one(q, 14), index->query_one(q, 14),
                     "post-release restore");
  }
  // Ids keep growing monotonically past the released bank after restore.
  restored->add(std::span{data.rows}.subspan(0, 2), std::span{data.labels}.subspan(0, 2));
  EXPECT_EQ(restored_sharded.bank_of(24), restored_sharded.num_banks() - 1);
  EXPECT_EQ(restored->size(), 16u);
}

TEST(ShardedMutation, BankOfDistinguishesCompactedIdsInsideASurvivingBank) {
  // bank_of must not report a bank that merely *spans* the id: an id
  // compacted out of a surviving bank's range maps nowhere.
  const Data data = make_data(8, 4, 1, 157);
  ShardedConfig config;
  config.bank_rows = 4;
  config.compact_dead_fraction = 0.5;
  ShardedNnIndex index{[] { return std::make_unique<SoftwareNnEngine>("euclidean"); },
                       config};
  index.add(data.rows, data.labels);
  // Kill 3 of bank 0's rows; the bank compacts down to survivor id 3.
  EXPECT_TRUE(index.erase(0));
  EXPECT_TRUE(index.erase(1));
  EXPECT_TRUE(index.erase(2));
  ASSERT_EQ(index.stats().compactions, 1u);
  EXPECT_EQ(index.bank_of(3), 0u);
  for (std::size_t id : {std::size_t{0}, std::size_t{1}, std::size_t{2}}) {
    EXPECT_EQ(index.bank_of(id), index.num_banks()) << id;
  }
  EXPECT_EQ(index.bank_of(5), 1u);
}

TEST(ShardedMerge, EqualScoresAcrossBanksResolveToLowerGlobalId) {
  // Bank-boundary tie-break: identical vectors land in different banks,
  // so their matchline conductances tie exactly; the merged ranking must
  // follow the WTA low-index convention on *global* ids.
  const std::vector<float> v{1.0f, 2.0f, 3.0f, 4.0f};
  const std::vector<float> far{9.0f, 9.0f, 9.0f, 9.0f};
  const std::vector<std::vector<float>> rows{v, far, v, far, v, far};
  const std::vector<int> labels{0, 1, 2, 3, 4, 5};
  for (const std::string& key : {std::string{"sharded-mcam3"},
                                 std::string{"sharded-euclidean"}}) {
    EngineConfig config;
    config.num_features = 4;
    config.bank_rows = 2;  // Copies of v at global ids 0, 2, 4 - one per bank.
    auto index = make_index(key, config);
    index->add(rows, labels);
    const QueryResult result = index->query_one(v, 3);
    ASSERT_EQ(result.neighbors.size(), 3u) << key;
    EXPECT_EQ(result.neighbors[0].index, 0u) << key;
    EXPECT_EQ(result.neighbors[1].index, 2u) << key;
    EXPECT_EQ(result.neighbors[2].index, 4u) << key;
  }
}

TEST(ShardedMerge, NanDistanceRanksLastAsInTheMonolithicEngine) {
  // A row with a NaN feature reads a NaN distance, which ranks after +inf
  // in every software ranking. The bank merge must agree wherever the NaN
  // rows sit: at a bank head, behind a finite row, or in several banks.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const std::vector<std::size_t>& nan_rows :
       {std::vector<std::size_t>{0}, std::vector<std::size_t>{3},
        std::vector<std::size_t>{5}, std::vector<std::size_t>{1, 4},
        std::vector<std::size_t>{0, 2, 5}}) {
    std::vector<std::vector<float>> rows;
    std::vector<int> labels;
    for (std::size_t r = 0; r < 6; ++r) {
      rows.push_back({static_cast<float>(r), static_cast<float>(r)});
      labels.push_back(static_cast<int>(r));
    }
    for (const std::size_t r : nan_rows) rows[r][0] = nan;
    EngineConfig config;
    config.num_features = 2;
    auto monolithic = make_index("euclidean", config);
    auto sharded = make_index("sharded-euclidean:bank_rows=2", config);
    monolithic->add(rows, labels);
    sharded->add(rows, labels);
    const std::vector<float> query{0.0f, 0.0f};
    const QueryResult want = monolithic->query_one(query, 6);
    const QueryResult got = sharded->query_one(query, 6);
    ASSERT_EQ(got.neighbors.size(), want.neighbors.size());
    for (std::size_t i = 0; i < want.neighbors.size(); ++i) {
      EXPECT_EQ(got.neighbors[i].index, want.neighbors[i].index)
          << "NaN row " << nan_rows.front() << ", rank " << i;
      EXPECT_EQ(std::isnan(got.neighbors[i].distance), std::isnan(want.neighbors[i].distance));
    }
    EXPECT_EQ(got.label, want.label);
    for (std::size_t i = want.neighbors.size() - nan_rows.size(); i < want.neighbors.size(); ++i) {
      EXPECT_TRUE(std::isnan(want.neighbors[i].distance)) << "rank " << i;
    }
  }
}

TEST(ShardedMerge, RankBySensingTieBreaksToLowerIndexWithAndWithoutMask) {
  // The primitive under the merge: ascending scores, exact ties to the
  // lower row index (argmin/WTA convention), tombstones skipped.
  const std::vector<double> scores{0.7, 0.3, 0.3, 0.1, 0.7};
  const std::vector<std::size_t> order = top_k_ascending(scores, 5);
  EXPECT_EQ(order, (std::vector<std::size_t>{3, 1, 2, 0, 4}));

  const std::vector<std::uint8_t> mask{1, 0, 1, 0, 1};
  const std::vector<std::size_t> masked = cam::rank_by_sensing(
      scores, mask, cam::SensingMode::kIdealSum, circuit::MatchlineParams{}, 4, 0.0, 5);
  EXPECT_EQ(masked, (std::vector<std::size_t>{2, 0, 4}));
}

TEST(ShardedQuery, BatchExecutorMatchesSequentialQueries) {
  const Data data = make_data(60, 6, 4, 113);
  EngineConfig config;
  config.num_features = 6;
  config.bank_rows = 7;
  auto index = make_index("sharded-mcam2", config);
  index->add(data.rows, data.labels);
  // Two threads of the batched executor, the offline parallel path, share
  // one sharded index; each answer equals the sequential query_one.
  const BatchExecutor executor{BatchOptions{2, 1}};
  const auto batched = executor.run(*index, data.queries, 9);
  for (std::size_t i = 0; i < data.queries.size(); ++i) {
    expect_identical(batched[i], index->query_one(data.queries[i], 9), "batched");
  }
}

TEST(ShardedTelemetry, AggregatesAcrossBanks) {
  const Data data = make_data(30, 5, 1, 127);
  EngineConfig config;
  config.num_features = 5;
  auto monolithic = make_index("mcam3", config);
  monolithic->add(data.rows, data.labels);
  const QueryTelemetry mono = monolithic->query_one(data.queries[0], 3).telemetry;
  EXPECT_EQ(mono.banks_searched, 1u);
  EXPECT_EQ(mono.candidates, 30u);

  config.bank_rows = 10;
  auto sharded = make_index("sharded-mcam3", config);
  sharded->add(data.rows, data.labels);
  const QueryTelemetry agg = sharded->query_one(data.queries[0], 3).telemetry;
  EXPECT_EQ(agg.banks_searched, 3u);
  EXPECT_EQ(agg.candidates, 30u);        // Summed live candidates.
  EXPECT_EQ(agg.sense_events, 9u);       // Each bank senses its own top-3.
  EXPECT_GT(agg.energy_j, 0.0);
  // The array energy model is linear in rows, so tiling is energy-neutral
  // for the search itself (the win is latency and feasibility).
  EXPECT_NEAR(agg.energy_j, mono.energy_j, 1e-9 * mono.energy_j);
}

TEST(ShardedCapacity, ArraysEnforceMaxRows) {
  cam::McamArrayConfig mcam_config;
  mcam_config.max_rows = 2;
  cam::McamArray array{mcam_config};
  const std::vector<std::uint16_t> row{1, 2, 3};
  array.add_row(row);
  array.add_row(row);
  EXPECT_TRUE(array.full());
  EXPECT_THROW((void)array.add_row(row), std::length_error);
  EXPECT_TRUE(array.invalidate_row(0));
  EXPECT_FALSE(array.invalidate_row(0));
  EXPECT_EQ(array.num_valid(), 1u);
  // Tombstoning frees no physical slot - only reprogramming (clear) does.
  EXPECT_THROW((void)array.add_row(row), std::length_error);
  EXPECT_EQ(array.k_nearest(row, 5), (std::vector<std::size_t>{1}));

  cam::TcamArrayConfig tcam_config;
  tcam_config.max_rows = 1;
  cam::TcamArray tcam{tcam_config};
  const std::vector<std::uint8_t> bits{1, 0, 1};
  tcam.add_row_bits(bits);
  EXPECT_THROW((void)tcam.add_row_bits(bits), std::length_error);
  EXPECT_TRUE(tcam.invalidate_row(0));
  EXPECT_EQ(tcam.num_valid(), 0u);
  EXPECT_THROW((void)tcam.nearest(bits), std::logic_error);
}

TEST(ShardedCapacity, MonolithicEngineRefusesToOutgrowOneBank) {
  // bank_rows on a *monolithic* key bounds the physical array: the one
  // thing real hardware cannot do is grow past its matchline. A refused
  // first batch must not calibrate the encoders either: the next add fits
  // them on its own rows, exactly as a fresh engine would.
  const Data data = make_data(10, 4, 4, 131);
  const std::span<const std::vector<float>> rows{data.rows};
  const std::span<const int> labels{data.labels};
  for (const std::string name : {"mcam3", "tcam-lsh"}) {
    EngineConfig config;
    config.num_features = 4;
    config.lsh_bits = 64;  // Long enough that a different z-score fit reranks rows.
    config.bank_rows = 8;
    auto index = make_index(name, config);
    EXPECT_THROW(index->add(data.rows, data.labels), std::length_error) << name;
    EXPECT_EQ(index->size(), 0u) << name;  // All-or-nothing: nothing was programmed.
    index->add(rows.subspan(6), labels.subspan(6));
    auto fresh = make_index(name, config);
    fresh->add(rows.subspan(6), labels.subspan(6));
    for (const auto& q : data.queries) {
      expect_identical(index->query_one(q, 4), fresh->query_one(q, 4),
                       name + " after a refused first batch");
    }
    index->add(rows.subspan(0, 4), labels.subspan(0, 4));
    EXPECT_THROW(index->add(rows.subspan(4, 1), labels.subspan(4, 1)), std::length_error)
        << name;
    EXPECT_EQ(index->size(), 8u) << name;
  }
}

TEST(EngineSpec, ParsesOverridesAndRejectsUnknownKeys) {
  const EngineSpec spec = parse_engine_spec("mcam:bits=2,bank_rows=64,shard_workers=3");
  EXPECT_EQ(spec.name, "mcam");
  EXPECT_EQ(spec.config.mcam_bits, 2u);
  EXPECT_EQ(spec.config.bank_rows, 64u);
  // The retired shard_workers key still parses, so old serving configs
  // load, and changes nothing: the spec equals the same spec without it.
  const EngineSpec without = parse_engine_spec("mcam:bits=2,bank_rows=64");
  EXPECT_EQ(spec.name, without.name);
  EXPECT_TRUE(spec.config == without.config);
  for (const char* bad : {"mcam:shard_workers=x", "mcam:shard_workers=", "mcam:shard_workers=-1",
                          "mcam:shard_workers=1,shard_workers=1"}) {
    EXPECT_THROW((void)parse_engine_spec(bad), std::invalid_argument) << bad;
  }

  EngineConfig base;
  base.seed = 42;
  const EngineSpec inherits = parse_engine_spec("tcam-lsh:lsh_bits=128", base);
  EXPECT_EQ(inherits.config.seed, 42u);  // Base config passes through.
  EXPECT_EQ(inherits.config.lsh_bits, 128u);

  const EngineSpec sensing = parse_engine_spec("mcam:sensing=timing,sense_clock_period=1e-9");
  EXPECT_EQ(sensing.config.sensing, cam::SensingMode::kMatchlineTiming);
  EXPECT_DOUBLE_EQ(sensing.config.sense_clock_period, 1e-9);

  try {
    (void)parse_engine_spec("mcam:flux_capacitor=1");
    FAIL() << "unknown key accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string{error.what()}.find("unknown key 'flux_capacitor'"),
              std::string::npos);
    EXPECT_NE(std::string{error.what()}.find("known keys:"), std::string::npos);
    EXPECT_NE(std::string{error.what()}.find("bank_rows"), std::string::npos);
  }
  EXPECT_THROW((void)parse_engine_spec("mcam:bits=banana"), std::invalid_argument);
  EXPECT_THROW((void)parse_engine_spec("mcam:bits"), std::invalid_argument);
  EXPECT_THROW((void)parse_engine_spec("mcam:"), std::invalid_argument);
  EXPECT_THROW((void)parse_engine_spec(":bits=2"), std::invalid_argument);

  // Value holes: stoull skips a leading space (hiding a '-') and wraps
  // negatives; a 64-bit value must not truncate into a narrower field;
  // a NaN, negative or infinite magnitude must not build a silently
  // noise-free (or nonsense) array.
  for (const char* bad :
       {"mcam:bank_rows= -5", "mcam:bank_rows=+5", "mcam:bits=4294967299",
        "refine:exhaustive=2", "mcam:vth_sigma=nan", "mcam:vth_sigma=-0.5",
        "mcam:vth_sigma=inf", "mcam:drift_sigma=-1", "mcam:clip_percentile=nan",
        "mcam:sense_clock_period=-1e-9"}) {
    EXPECT_THROW((void)parse_engine_spec(bad), std::invalid_argument) << bad;
  }
  const EngineSpec edges =
      parse_engine_spec("mcam:bits=4294967295,seed=18446744073709551615,vth_sigma=0");
  EXPECT_EQ(edges.config.mcam_bits, 4294967295u);
  EXPECT_EQ(edges.config.seed, 18446744073709551615u);
  EXPECT_EQ(edges.config.vth_sigma, 0.0);
}

TEST(EngineSpec, RejectsDuplicateKeysAndEmptyValuesNamingTheSpec) {
  // Last-write-wins on a repeated key (or a silently empty value) is
  // almost always a typo in a serving config: fail loudly, and name the
  // offending spec string in the error so it is diagnosable from a log.
  try {
    (void)parse_engine_spec("mcam:bits=2,bank_rows=8,bits=3");
    FAIL() << "duplicate key accepted";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("duplicate key 'bits'"), std::string::npos) << what;
    EXPECT_NE(what.find("'mcam:bits=2,bank_rows=8,bits=3'"), std::string::npos) << what;
  }
  try {
    (void)parse_engine_spec("mcam:bits=");
    FAIL() << "empty value accepted";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("empty value for key 'bits'"), std::string::npos) << what;
    EXPECT_NE(what.find("'mcam:bits='"), std::string::npos) << what;
  }
  // The spec string is also named for malformed items and unknown keys.
  try {
    (void)parse_engine_spec("mcam:flux=1");
    FAIL() << "unknown key accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string{error.what()}.find("in spec 'mcam:flux=1'"), std::string::npos);
  }
}

TEST(EngineSpec, FactoryCreatesFromSpecStrings) {
  const Data data = make_data(20, 4, 2, 137);
  EngineConfig config;
  config.num_features = 4;
  auto index = make_index("sharded-mcam:bits=2,bank_rows=8", config);
  index->add(data.rows, data.labels);
  EXPECT_NE(index->name().find("2-bit MCAM"), std::string::npos);
  EXPECT_NE(index->name().find("3 banks"), std::string::npos);
  EXPECT_EQ(index->query_one(data.queries[0], 3).telemetry.banks_searched, 3u);
  EXPECT_THROW((void)make_index("mcam:nope=1", config), std::invalid_argument);
}

TEST(ShardedMann, FeatureMemoryExercisesBankAllocationAndForgetting) {
  // The MANN layer over a sharded memory: shots stream into banks, stale
  // shots are forgotten (tombstoned), lookups majority-vote as before.
  const Data data = make_data(24, 6, 3, 139);
  ShardedConfig config;
  config.bank_rows = 8;
  auto sharded = std::make_unique<ShardedNnIndex>(
      [] { return std::make_unique<SoftwareNnEngine>("euclidean"); }, config);
  const ShardedNnIndex* raw = sharded.get();
  mann::FeatureMemory memory{std::move(sharded), mann::StoragePolicy::kAllShots};

  const std::span<const std::vector<float>> rows{data.rows};
  const std::span<const int> labels{data.labels};
  memory.store(rows.subspan(0, 16), labels.subspan(0, 16));
  EXPECT_EQ(raw->num_banks(), 2u);
  memory.append(rows.subspan(16), labels.subspan(16));
  EXPECT_EQ(raw->num_banks(), 3u);
  EXPECT_EQ(memory.size(), 24u);

  const QueryResult hit = memory.retrieve(data.queries[0], 3);
  EXPECT_EQ(hit.telemetry.banks_searched, 3u);
  EXPECT_TRUE(memory.forget(hit.neighbors.front().index));
  EXPECT_EQ(memory.size(), 23u);
  const QueryResult after = memory.retrieve(data.queries[0], 3);
  EXPECT_NE(after.neighbors.front().index, hit.neighbors.front().index);
  EXPECT_EQ(memory.lookup(data.queries[0], 3), after.label);

  // Prototype memories cannot stream or forget shots.
  mann::FeatureMemory prototypes{std::make_unique<SoftwareNnEngine>("euclidean"),
                                 mann::StoragePolicy::kPrototype};
  prototypes.store(rows.subspan(0, 8), labels.subspan(0, 8));
  EXPECT_THROW(prototypes.append(rows.subspan(8, 2), labels.subspan(8, 2)),
               std::logic_error);
  EXPECT_THROW((void)prototypes.forget(0), std::logic_error);
}

TEST(ShardedLifecycle, QueryBeforeAddAndClearResetsCalibration) {
  EngineConfig config;
  config.num_features = 4;
  config.bank_rows = 4;
  auto index = make_index("sharded-mcam3", config);
  EXPECT_THROW((void)index->query_one(std::vector<float>{1, 2, 3, 4}, 1),
               std::logic_error);
  const Data near_origin = make_data(8, 4, 1, 149);
  index->add(near_origin.rows, near_origin.labels);
  // clear() drops banks *and* the stored calibration rows: the next add
  // recalibrates, as the monolithic engines do.
  index->clear();
  EXPECT_EQ(index->size(), 0u);
  Data shifted = near_origin;
  for (auto& row : shifted.rows) {
    for (auto& v : row) v += 100.0f;
  }
  index->add(shifted.rows, shifted.labels);
  EXPECT_EQ(index->size(), 8u);
  EXPECT_EQ(index->query_one(shifted.queries[0], 1).neighbors.size(), 1u);
}

TEST(ShardedLifecycle, RejectedCalibrationLeavesTheIndexUncalibrated) {
  // A calibration set the backend refuses must throw from the call that
  // supplied it and leave the index uncalibrated, exactly as the
  // monolithic twin does, so the next good batch calibrates both.
  const Data data = make_data(40, 6, 4, 151);
  std::vector<std::vector<float>> with_nan = data.rows;
  with_nan[5][2] = std::numeric_limits<float>::quiet_NaN();
  std::vector<std::vector<float>> ragged = data.rows;
  ragged[7].pop_back();
  for (const std::string key : {"mcam3", "tcam-lsh"}) {
    SCOPED_TRACE(key);
    EngineConfig config;
    config.num_features = 6;
    auto monolithic = make_index(key, config);
    EngineConfig sharded_config = config;
    sharded_config.bank_rows = 8;
    auto sharded = make_index("sharded-" + key, sharded_config);
    for (NnIndex* index : {monolithic.get(), sharded.get()}) {
      EXPECT_THROW(index->add(with_nan, data.labels), std::invalid_argument);
      EXPECT_THROW(index->calibrate(ragged), std::invalid_argument);
      EXPECT_THROW(index->calibrate(with_nan), std::invalid_argument);
      EXPECT_EQ(index->size(), 0u);
      index->add(data.rows, data.labels);
      EXPECT_EQ(index->size(), data.rows.size());
    }
    // The engine that accepted the calibration counts once it is a bank.
    const auto& banks = dynamic_cast<const ShardedNnIndex&>(*sharded);
    EXPECT_EQ(banks.num_banks(), 5u);
    EXPECT_EQ(banks.stats().banks_allocated, 5u);
    auto calibrated = make_index("sharded-" + key, sharded_config);
    calibrated->calibrate(data.rows);
    EXPECT_EQ(dynamic_cast<const ShardedNnIndex&>(*calibrated).stats().banks_allocated, 0u);
    for (const auto& q : data.queries) {
      expect_identical(sharded->query_one(q, 5), monolithic->query_one(q, 5), key);
    }
  }
}

}  // namespace
}  // namespace mcam::search
