// Snapshot persistence invariants: for every factory backend (monolithic
// and sharded, both sensing modes, with programming noise enabled),
// load(save(idx)) answers queries bit-identically to the original after a
// randomized add/erase history, later adds behave identically (the replay
// reconstructs the RNG position), the header layer rejects corrupted,
// truncated, mis-versioned and mis-typed blobs before any engine code
// runs, a well-sealed blob with non-finite signature state or an unknown
// config mode is refused, captured v2 and TCAM+LSH blobs still load (the
// TCAM+LSH ones byte for byte as saved today), and a file write replaces
// its target atomically.
#include "serve/snapshot.hpp"

#include "cam/lut.hpp"
#include "encoding/quantizer.hpp"
#include "mann/memory.hpp"
#include "search/engine.hpp"
#include "search/factory.hpp"
#include "search/refine.hpp"
#include "serve/io.hpp"
#include "snapshot_tcam_lsh_fixtures.hpp"
#include "snapshot_v2_fixtures.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace mcam::serve {
namespace {

using search::EngineConfig;
using search::NnIndex;
using search::QueryResult;

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
      v[i] = static_cast<float>(rng.normal(cls * 1.4 + (i % 3) * 0.25, 0.7));
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

/// Re-seals a patched blob: the header is magic (8 bytes), version,
/// checksum (u32 each) and payload length (u64), so the payload starts at
/// byte 24.
void reseal(std::vector<std::uint8_t>& blob) {
  const std::uint32_t crc = io::crc32(std::span{blob}.subspan(24));
  for (std::size_t i = 0; i < 4; ++i) blob[12 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
}

void expect_identical(const QueryResult& restored, const QueryResult& original,
                      const std::string& context) {
  EXPECT_EQ(restored.label, original.label) << context;
  ASSERT_EQ(restored.neighbors.size(), original.neighbors.size()) << context;
  for (std::size_t i = 0; i < original.neighbors.size(); ++i) {
    EXPECT_EQ(restored.neighbors[i].index, original.neighbors[i].index)
        << context << " rank " << i;
    EXPECT_EQ(restored.neighbors[i].label, original.neighbors[i].label)
        << context << " rank " << i;
    EXPECT_EQ(restored.neighbors[i].distance, original.neighbors[i].distance)
        << context << " rank " << i;  // Exact: same conductances / metrics.
  }
  EXPECT_EQ(restored.telemetry.candidates, original.telemetry.candidates) << context;
}

/// Applies a seeded add/erase history, snapshots, restores, and checks
/// query identity plus identical behavior of a post-restore add.
void check_round_trip(const std::string& name, const EngineConfig& config,
                      std::uint64_t history_seed) {
  const Data data = make_data(70, 6, 5, 301 + history_seed);
  const Data extra = make_data(12, 6, 0, 977 + history_seed);
  auto original = search::make_index(name, config);

  // Randomized history: calibrating add, interleaved erases and adds.
  Rng history{history_seed};
  std::size_t added = 0;
  const auto add_some = [&](std::size_t count) {
    const std::size_t take = std::min(count, data.rows.size() - added);
    if (take == 0) return;
    original->add(std::span{data.rows}.subspan(added, take),
                  std::span{data.labels}.subspan(added, take));
    added += take;
  };
  add_some(20 + history.index(20));
  for (int round = 0; round < 3; ++round) {
    for (int e = 0; e < 4; ++e) {
      const std::size_t id = history.index(added);
      try {
        original->erase(id);
      } catch (const std::out_of_range&) {
        // Unreachable: ids < added always exist.
        FAIL() << "erase threw for a live id";
      }
    }
    add_some(5 + history.index(10));
  }

  const std::vector<std::uint8_t> blob = save(*original, name, config);
  auto restored = load(blob);
  ASSERT_NE(restored, nullptr) << name;
  EXPECT_EQ(restored->size(), original->size()) << name;
  EXPECT_EQ(restored->name(), original->name()) << name;

  for (const auto& q : data.queries) {
    for (std::size_t k : {std::size_t{1}, std::size_t{5}, original->size()}) {
      expect_identical(restored->query_one(q, k), original->query_one(q, k),
                       name + " k=" + std::to_string(k));
    }
  }

  // Warm-restart contract: streaming more rows into the restored index
  // behaves exactly like the original (replay reconstructed the per-bank
  // RNG positions, so programming noise continues identically), and so do
  // further erases (the id map round-tripped).
  original->add(extra.rows, extra.labels);
  restored->add(extra.rows, extra.labels);
  const std::size_t late_victim = added / 2;
  EXPECT_EQ(original->erase(late_victim), restored->erase(late_victim)) << name;
  for (const auto& q : data.queries) {
    expect_identical(restored->query_one(q, 7), original->query_one(q, 7),
                     name + " post-restore add/erase");
  }
}

TEST(SnapshotRoundTrip, BitIdenticalForEveryFactoryBackendIdealSensing) {
  std::uint64_t seed = 11;
  for (const std::string& name : search::EngineFactory::instance().registered_names()) {
    EngineConfig config;
    config.num_features = 6;
    config.vth_sigma = 0.04;  // Exercise the programming-noise replay.
    // bank_rows bounds the *physical* array for monolithic keys; only the
    // sharded twins tile past it.
    config.bank_rows = name.rfind("sharded-", 0) == 0 ? 24 : 0;
    // The two-stage pipeline rides the same loop: both stages (coarse
    // TCAM planes + the noisy MCAM fine stage) must replay bit-identically.
    if (name == "refine") config.fine_spec = "mcam3";
    check_round_trip(name, config, seed++);
  }
}

TEST(SnapshotRoundTrip, BitIdenticalUnderMatchlineTiming) {
  std::uint64_t seed = 211;
  for (const std::string& name :
       {std::string{"mcam3"}, std::string{"mcam2"}, std::string{"tcam-lsh"},
        std::string{"sharded-mcam3"}, std::string{"sharded-tcam-lsh"}}) {
    EngineConfig config;
    config.num_features = 6;
    config.vth_sigma = 0.04;
    config.sensing = cam::SensingMode::kMatchlineTiming;
    config.sense_clock_period = 1e-10;
    config.bank_rows = name.rfind("sharded-", 0) == 0 ? 16 : 0;
    check_round_trip(name, config, seed++);
  }
}

TEST(SnapshotRoundTrip, CalibratedEmptyIndexKeepsItsEncoders) {
  // calibrate-then-snapshot is the deployment path for shipping a fitted
  // but unpopulated index to serving hosts.
  const Data data = make_data(40, 5, 3, 71);
  EngineConfig config;
  config.num_features = 5;
  for (const std::string name : {"mcam3", "sharded-mcam3:bank_rows=16"}) {
    auto original = search::make_index(name, config);
    original->calibrate(data.rows);
    const std::vector<std::uint8_t> blob = save(*original, name, config);
    auto restored = load(blob);
    EXPECT_EQ(restored->size(), 0u);
    original->add(data.rows, data.labels);
    restored->add(data.rows, data.labels);
    for (const auto& q : data.queries) {
      expect_identical(restored->query_one(q, 3), original->query_one(q, 3),
                       name + " calibrated-empty");
    }
  }
}

TEST(SnapshotRoundTrip, LutPayloadRestoresIntoTableEngine) {
  // Engine payloads tagged "mcam-lut-v1" (saved by the retired table-backed
  // MCAM engine) carry the mcam-v1 layout byte for byte, and restore into
  // an McamNnEngine built with the table. The payload is written here the
  // way that engine wrote it.
  const Data data = make_data(30, 4, 3, 83);
  cam::McamArrayConfig config;
  config.level_map = fefet::LevelMap{2};
  config.lut = std::make_shared<const cam::ConductanceLut>(
      cam::ConductanceLut::nominal(fefet::LevelMap{2}));
  search::McamNnEngine original{config};
  original.add(data.rows, data.labels);
  ASSERT_TRUE(original.erase(3));

  const encoding::UniformQuantizer quantizer = encoding::UniformQuantizer::fit(data.rows, 2);
  io::Writer out;
  out.str("mcam-lut-v1");
  out.u8(1);
  out.u32(2);
  out.vec_f32(quantizer.lows());
  out.vec_f32(quantizer.highs());
  out.u64(data.rows.size());
  for (const auto& row : data.rows) out.vec_u16(quantizer.quantize(row));
  std::vector<std::uint8_t> valid(data.rows.size(), 1);
  valid[3] = 0;
  out.vec_u8(valid);
  out.vec_i32(data.labels);

  search::McamNnEngine restored{config};
  io::Reader in{out.buffer()};
  restored.load_state(in);
  in.expect_end();
  EXPECT_EQ(restored.size(), original.size());
  for (const auto& q : data.queries) {
    expect_identical(restored.query_one(q, 5), original.query_one(q, 5), "mcam-lut");
  }
}

TEST(SnapshotRoundTrip, MannFeatureMemoryRestoresWarm) {
  // A programmed episode memory persists through the same hooks: the MANN
  // deployment path for shipping support sets to serving hosts.
  const Data data = make_data(40, 6, 4, 87);
  EngineConfig config;
  config.num_features = 6;
  config.bank_rows = 16;
  mann::FeatureMemory original{search::make_index("sharded-mcam2", config),
                               mann::StoragePolicy::kAllShots};
  original.store(data.rows, data.labels);
  ASSERT_TRUE(original.forget(5));

  io::Writer out;
  original.save_state(out);
  mann::FeatureMemory restored{search::make_index("sharded-mcam2", config),
                               mann::StoragePolicy::kAllShots};
  io::Reader in{out.buffer()};
  restored.load_state(in);
  in.expect_end();
  EXPECT_EQ(restored.size(), original.size());
  for (const auto& q : data.queries) {
    expect_identical(restored.retrieve(q, 5), original.retrieve(q, 5), "mann");
    EXPECT_EQ(restored.lookup(q, 3), original.lookup(q, 3));
  }

  // Policy mismatch is rejected before any index state changes.
  mann::FeatureMemory wrong_policy{search::make_index("sharded-mcam2", config),
                                   mann::StoragePolicy::kPrototype};
  io::Reader again{out.buffer()};
  EXPECT_THROW(wrong_policy.load_state(again), io::SnapshotError);
}

TEST(SnapshotFormat, InspectReportsHeaderAndRecipe) {
  const Data data = make_data(30, 4, 0, 91);
  EngineConfig config;
  config.num_features = 4;
  config.bank_rows = 8;
  auto index = search::make_index("sharded-euclidean", config);
  index->add(data.rows, data.labels);
  // Spec-string names are normalized into the embedded recipe.
  const std::vector<std::uint8_t> blob =
      save(*index, "sharded-euclidean:bank_rows=8", config);
  const SnapshotInfo info = inspect(blob);
  EXPECT_EQ(info.version, kSnapshotVersion);
  EXPECT_EQ(info.engine, "sharded-euclidean");
  EXPECT_EQ(info.config.bank_rows, 8u);
  EXPECT_EQ(info.config.num_features, 4u);
  EXPECT_GT(info.payload_bytes, 0u);
}

TEST(SnapshotFormat, RejectsCorruptionTruncationAndBadVersion) {
  const Data data = make_data(25, 4, 0, 93);
  EngineConfig config;
  config.num_features = 4;
  auto index = search::make_index("mcam2", config);
  index->add(data.rows, data.labels);
  const std::vector<std::uint8_t> blob = save(*index, "mcam2", config);

  {  // Flipped payload byte -> checksum failure.
    std::vector<std::uint8_t> bad = blob;
    bad[bad.size() - 1] ^= 0xFF;
    EXPECT_THROW((void)load(bad), io::SnapshotError);
  }
  {  // Truncation -> length mismatch.
    std::vector<std::uint8_t> bad{blob.begin(), blob.end() - 5};
    EXPECT_THROW((void)load(bad), io::SnapshotError);
  }
  {  // Bad magic.
    std::vector<std::uint8_t> bad = blob;
    bad[0] = 'X';
    EXPECT_THROW((void)load(bad), io::SnapshotError);
  }
  {  // Unknown future version (patch the checksum is not even needed:
     // version is checked before the payload).
    std::vector<std::uint8_t> bad = blob;
    bad[8] = 0x7F;
    EXPECT_THROW((void)load(bad), io::SnapshotError);
  }
  {  // v1 predates the backward-compat floor.
    std::vector<std::uint8_t> bad = blob;
    bad[8] = 0x01;
    EXPECT_THROW((void)load(bad), io::SnapshotError);
  }
  {  // Shorter than the header.
    const std::vector<std::uint8_t> bad{blob.begin(), blob.begin() + 10};
    EXPECT_THROW((void)inspect(bad), io::SnapshotError);
  }
}

TEST(SnapshotFormat, NonFiniteSignatureStateIsRejected) {
  // A refine blob whose coarse planes hold a NaN, sealed with a valid
  // checksum, used to restore a coarse stage that sets no signature bit.
  const Data data = make_data(30, 6, 0, 97);
  EngineConfig config;
  config.num_features = 6;
  const std::string spec = "refine:coarse_bits=16,sig=itq,fine=euclidean";
  auto index = search::make_index(spec, config);
  index->add(data.rows, data.labels);
  const std::vector<std::uint8_t> blob = save(*index, spec, config);
  const std::vector<float>& planes =
      dynamic_cast<const search::TwoStageNnIndex&>(*index).signature_model().planes();
  // Floats are written little-endian, as x86 and ARM hold them.
  const auto* plane_bytes = reinterpret_cast<const std::uint8_t*>(planes.data());
  const auto at = std::search(blob.begin(), blob.end(), plane_bytes,
                              plane_bytes + planes.size() * sizeof(float));
  ASSERT_NE(at, blob.end());
  std::vector<std::uint8_t> bad = blob;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::memcpy(&bad[static_cast<std::size_t>(at - blob.begin()) + 3 * sizeof(float)], &nan,
              sizeof nan);
  reseal(bad);
  EXPECT_NO_THROW((void)inspect(bad));  // The header and checksum hold.
  EXPECT_THROW((void)load(bad), io::SnapshotError);
  EXPECT_EQ(load(blob)->size(), index->size());
}

TEST(SnapshotFormat, BadConfigMagnitudeIsRejected) {
  // The spec parser refuses a NaN, infinite or negative double; the
  // config block of a blob must meet the same rule. A NaN clip used to
  // reach an undefined float-to-integer cast in every bank's refit.
  const Data data = make_data(40, 5, 0, 101);
  EngineConfig config;
  config.num_features = 5;
  config.bank_rows = 16;
  const std::string spec = "sharded-mcam3";
  auto index = search::make_index(spec, config);
  index->add(data.rows, data.labels);
  const std::vector<std::uint8_t> blob = save(*index, spec, config);
  // The config follows the engine name (u64 length + bytes): num_features
  // (u64), mcam_bits (u32), lsh_bits (u64), vth_sigma (f64), sensing (u8),
  // sense_clock_period (f64), clip_percentile (f64).
  const std::size_t vth_sigma = 24 + 8 + spec.size() + 8 + 4 + 8;
  const std::size_t sense_clock_period = vth_sigma + 8 + 1;
  const std::size_t clip_percentile = sense_clock_period + 8;
  for (const auto& [offset, value] :
       {std::pair{clip_percentile, std::numeric_limits<double>::quiet_NaN()},
        std::pair{clip_percentile, -1.0},
        std::pair{vth_sigma, std::numeric_limits<double>::infinity()},
        std::pair{sense_clock_period, -std::numeric_limits<double>::quiet_NaN()}}) {
    SCOPED_TRACE(::testing::Message() << "offset " << offset << " value " << value);
    std::vector<std::uint8_t> bad = blob;
    std::memcpy(&bad[offset], &value, sizeof value);
    reseal(bad);
    EXPECT_THROW((void)inspect(bad), io::SnapshotError);
    EXPECT_THROW((void)load(bad), io::SnapshotError);
  }
  EXPECT_EQ(load(blob)->size(), index->size());
}

TEST(SnapshotFormat, BadConfigModeIsRejected) {
  // The spec parser admits only the known filter policies and rerank
  // precisions; the config block of a blob must meet the same rule. An
  // unknown policy used to load and fail later in Collection::restore, an
  // unknown precision inside the engine factory, both as invalid_argument.
  const Data data = make_data(30, 4, 0, 107);
  EngineConfig config;
  config.num_features = 4;
  config.filter_policy = "band";
  config.rerank = "fp32";
  auto index = search::make_index("euclidean", config);
  index->add(data.rows, data.labels);
  const std::vector<std::uint8_t> blob = save(*index, "euclidean", config);
  // The config block ends with filter_policy, then rerank, each a u64
  // length and its bytes.
  io::Writer modes;
  modes.str("band");
  modes.str("fp32");
  const auto at = std::search(blob.begin(), blob.end(), modes.buffer().begin(),
                              modes.buffer().end());
  ASSERT_NE(at, blob.end());
  const std::size_t filter_policy = static_cast<std::size_t>(at - blob.begin()) + 8;
  const std::size_t rerank = filter_policy + 4 + 8;
  for (const std::size_t offset : {filter_policy, rerank}) {
    SCOPED_TRACE(::testing::Message() << "offset " << offset);
    std::vector<std::uint8_t> bad = blob;
    std::memcpy(&bad[offset], "junk", 4);
    reseal(bad);
    EXPECT_THROW((void)inspect(bad), io::SnapshotError);
    EXPECT_THROW((void)load(bad), io::SnapshotError);
  }
  const SnapshotInfo info = inspect(blob);
  EXPECT_EQ(info.config.filter_policy, "band");
  EXPECT_EQ(info.config.rerank, "fp32");
  EXPECT_EQ(load(blob)->size(), index->size());
}

TEST(SnapshotFormat, NonFiniteQuantizerBoundIsRejected) {
  // An infinite bound passes hi > lo, yet quantizes every value of its
  // feature to level 0. It must fail to load as a hi <= lo bound does.
  const Data data = make_data(30, 4, 0, 103);
  const float inf = std::numeric_limits<float>::infinity();
  EngineConfig config;
  config.num_features = 4;
  auto index = search::make_index("mcam3", config);
  index->add(data.rows, data.labels);
  const std::vector<std::uint8_t> blob = save(*index, "mcam3", config);
  const auto& quantizer = dynamic_cast<const search::McamNnEngine&>(*index).quantizer();
  const std::vector<float>& highs = quantizer.highs();
  const auto* high_bytes = reinterpret_cast<const std::uint8_t*>(highs.data());
  const auto at = std::search(blob.begin(), blob.end(), high_bytes,
                              high_bytes + highs.size() * sizeof(float));
  ASSERT_NE(at, blob.end());
  const auto high_offset = static_cast<std::size_t>(at - blob.begin()) + 2 * sizeof(float);
  for (const float bound : {inf, quantizer.lows()[2]}) {
    SCOPED_TRACE(::testing::Message() << "high bound " << bound);
    std::vector<std::uint8_t> bad = blob;
    std::memcpy(&bad[high_offset], &bound, sizeof bound);
    reseal(bad);
    EXPECT_NO_THROW((void)inspect(bad));
    EXPECT_THROW((void)load(bad), std::invalid_argument);
  }
  EXPECT_EQ(load(blob)->size(), index->size());
}

TEST(SnapshotFormat, EnginePayloadTagMismatchIsDetected) {
  const Data data = make_data(20, 4, 0, 95);
  search::SoftwareNnEngine software{"euclidean"};
  software.add(data.rows, data.labels);
  io::Writer out;
  software.save_state(out);

  EngineConfig config;
  config.num_features = 4;
  auto mcam = search::make_index("mcam3", config);
  io::Reader in{out.buffer()};
  EXPECT_THROW(mcam->load_state(in), io::SnapshotError);
}

TEST(SnapshotFormat, FileRoundTripRestoresWarm) {
  const Data data = make_data(50, 5, 4, 97);
  EngineConfig config;
  config.num_features = 5;
  config.bank_rows = 16;
  auto index = search::make_index("sharded-mcam3", config);
  index->add(data.rows, data.labels);
  ASSERT_TRUE(index->erase(7));

  const std::string path = ::testing::TempDir() + "mcam_snapshot_test.bin";
  save_file(*index, "sharded-mcam3", config, path);
  auto restored = load_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(restored->size(), index->size());
  for (const auto& q : data.queries) {
    expect_identical(restored->query_one(q, 5), index->query_one(q, 5), "file");
  }
}

/// Builds the post-v3 twin of a captured v2 fixture blob: the same spec,
/// data, and erase history, executed by current code.
std::unique_ptr<NnIndex> build_fixture_twin(const std::string& spec,
                                            const v2fixture::FixtureData& data) {
  EngineConfig config;
  config.num_features = 6;
  auto twin = search::make_index(spec, config);
  twin->add(data.rows, data.labels);
  for (std::size_t id : v2fixture::v2_fixture_erased()) {
    if (!twin->erase(id)) throw std::logic_error{"fixture erase diverged"};
  }
  return twin;
}

TEST(SnapshotCompat, CapturedV2RefineBlobLoadsAsRandomSingleProbe) {
  // Backward compatibility against genuine v2 bytes (captured at snapshot
  // version 2, before the signature-model subsystem): the blob loads, the
  // missing config fields default to the pre-v3 behavior, and the
  // restored pipeline answers bit-identically to the same history
  // replayed by current code (the `random` model is bit-compatible with
  // the legacy TCAM-LSH coarse stage).
  const std::span<const unsigned char> bytes{v2fixture::kRefineBlob};
  const SnapshotInfo info = inspect(bytes);
  EXPECT_EQ(info.version, 2u);
  EXPECT_EQ(info.engine, "refine");
  EXPECT_EQ(info.config.coarse_bits, 24u);
  EXPECT_EQ(info.config.candidate_factor, 3u);
  EXPECT_EQ(info.config.fine_spec, "sharded-mcam3:bank_rows=16");
  EXPECT_TRUE(info.config.sig_model.empty());  // v2 default -> "random".
  EXPECT_EQ(info.config.probes, 0u);           // v2 default -> 1 probe.

  auto restored = load(bytes);
  ASSERT_NE(restored, nullptr);
  const v2fixture::FixtureData data = v2fixture::v2_fixture_data();
  auto twin = build_fixture_twin(
      "refine:coarse_bits=24,candidate_factor=3,fine=sharded-mcam3:bank_rows=16", data);
  EXPECT_EQ(restored->size(), twin->size());
  for (const auto& q : data.queries) {
    for (std::size_t k : {std::size_t{1}, std::size_t{5}, twin->size()}) {
      expect_identical(restored->query_one(q, k), twin->query_one(q, k),
                       "v2 refine blob k=" + std::to_string(k));
    }
  }
  // The restored index keeps mutating correctly (both stages in sync).
  ASSERT_TRUE(restored->erase(10));
  ASSERT_TRUE(twin->erase(10));
  expect_identical(restored->query_one(data.queries[0], 4),
                   twin->query_one(data.queries[0], 4), "v2 refine post-load erase");
  // And re-saving writes the current version, which round-trips again.
  EngineConfig config;
  config.num_features = 6;
  const std::vector<std::uint8_t> resaved =
      save(*restored, "refine:coarse_bits=24,candidate_factor=3,fine=sharded-mcam3:bank_rows=16",
           config);
  EXPECT_EQ(inspect(resaved).version, kSnapshotVersion);
  auto reloaded = load(resaved);
  expect_identical(reloaded->query_one(data.queries[1], 3),
                   restored->query_one(data.queries[1], 3), "v2 -> v3 re-save");
}

TEST(SnapshotCompat, CapturedV2ShardedBlobStillLoads) {
  // Non-refine v2 blobs ride the same compat path: only the header and
  // the embedded config layout changed, not the engine payloads.
  const std::span<const unsigned char> bytes{v2fixture::kShardedBlob};
  const SnapshotInfo info = inspect(bytes);
  EXPECT_EQ(info.version, 2u);
  EXPECT_EQ(info.engine, "sharded-mcam3");
  EXPECT_EQ(info.config.bank_rows, 16u);

  auto restored = load(bytes);
  ASSERT_NE(restored, nullptr);
  const v2fixture::FixtureData data = v2fixture::v2_fixture_data();
  auto twin = build_fixture_twin("sharded-mcam3:bank_rows=16", data);
  EXPECT_EQ(restored->size(), twin->size());
  for (const auto& q : data.queries) {
    expect_identical(restored->query_one(q, 5), twin->query_one(q, 5),
                     "v2 sharded blob");
  }
}

TEST(SnapshotCompat, PinnedTcamLshBlobsAreByteStable) {
  // The TCAM+LSH baseline's own "tcam-lsh-v1" payload, monolithic and
  // sharded: replaying the captured history saves the captured bytes, and
  // the captured bytes load into an engine that answers like the live one.
  const std::pair<const char*, std::span<const unsigned char>> pins[] = {
      {"tcam-lsh", tcam_lsh_fixture::kTcamLshBlob},
      {"sharded-tcam-lsh:bank_rows=8", tcam_lsh_fixture::kShardedTcamLshBlob}};
  const tcam_lsh_fixture::History data = tcam_lsh_fixture::history();
  for (const auto& [spec, pinned] : pins) {
    SCOPED_TRACE(spec);
    auto live = tcam_lsh_fixture::replay(spec);
    const std::vector<std::uint8_t> saved =
        save(*live, spec, tcam_lsh_fixture::saved_config());
    EXPECT_TRUE(std::equal(saved.begin(), saved.end(), pinned.begin(), pinned.end()))
        << "saved " << saved.size() << " bytes, pinned " << pinned.size();

    auto restored = load(pinned);
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->size(), live->size());
    EXPECT_EQ(restored->name(), live->name());
    for (const auto& q : data.queries) {
      for (std::size_t k : {std::size_t{1}, std::size_t{5}, live->size()}) {
        expect_identical(restored->query_one(q, k), live->query_one(q, k),
                         std::string{spec} + " k=" + std::to_string(k));
      }
    }
  }
}

TEST(SnapshotCompat, HandAssembledV3BlobLoadsBitIdentically) {
  // v4 appended tag_bits / filter_policy to the embedded config and an
  // optional store block; a v3 blob has neither. Assemble genuine v3
  // bytes around a current engine payload (band-less engine payloads are
  // unchanged since v3) and prove the compat path restores them exactly.
  const Data data = make_data(40, 6, 4, 401);
  const std::string spec =
      "refine:coarse_bits=24,candidate_factor=4,sig=trained,probes=2,"
      "fine=euclidean";
  EngineConfig base;
  base.num_features = 6;
  const search::EngineSpec parsed = search::parse_engine_spec(spec, base);
  auto original = search::make_index(spec, base);
  original->add(data.rows, data.labels);
  ASSERT_TRUE(original->erase(11));

  io::Writer payload;
  payload.str(parsed.name);
  // The v3 config layout: v4's prefix, ending at `probes` - no tag_bits,
  // no filter_policy, and no store-present byte before the engine bytes.
  const EngineConfig& c = parsed.config;
  payload.u64(c.num_features);
  payload.u32(c.mcam_bits);
  payload.u64(c.lsh_bits);
  payload.f64(c.vth_sigma);
  payload.u8(static_cast<std::uint8_t>(c.sensing));
  payload.f64(c.sense_clock_period);
  payload.f64(c.clip_percentile);
  payload.u64(c.seed);
  payload.u64(c.bank_rows);
  payload.u64(4);  // The retired shard_workers slot; its value is ignored.
  payload.u64(c.coarse_bits);
  payload.u64(c.candidate_factor);
  payload.u8(c.refine_exhaustive ? 1 : 0);
  payload.str(c.fine_spec);
  payload.str(c.sig_model);
  payload.u64(c.probes);
  original->save_state(payload);

  io::Writer blob;
  const std::array<std::uint8_t, 8> magic = {'M', 'C', 'A', 'M', 'S', 'N', 'A', 'P'};
  blob.raw(magic);
  blob.u32(3);
  blob.u32(io::crc32(payload.buffer()));
  blob.u64(payload.size());
  blob.raw(payload.buffer());

  const SnapshotInfo info = inspect(blob.buffer());
  EXPECT_EQ(info.version, 3u);
  EXPECT_EQ(info.engine, "refine");
  EXPECT_EQ(info.config.sig_model, "trained");
  EXPECT_EQ(info.config.probes, 2u);
  EXPECT_EQ(info.config.fine_spec, "euclidean");
  EXPECT_EQ(info.config.tag_bits, 0u);        // v3 default: no band.
  EXPECT_TRUE(info.config.filter_policy.empty());
  EXPECT_FALSE(info.has_store);

  auto restored = load(blob.buffer());
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->size(), original->size());
  for (const auto& q : data.queries) {
    for (std::size_t k : {std::size_t{1}, std::size_t{5}, original->size()}) {
      expect_identical(restored->query_one(q, k), original->query_one(q, k),
                       "v3 blob k=" + std::to_string(k));
    }
  }
  // Re-saving writes the current version with the appended fields.
  const std::vector<std::uint8_t> resaved = save(*restored, spec, base);
  EXPECT_EQ(inspect(resaved).version, kSnapshotVersion);
  expect_identical(load(resaved)->query_one(data.queries[0], 5),
                   original->query_one(data.queries[0], 5), "v3 -> v4 re-save");
}

TEST(SnapshotIo, WriteFileReplacesTheTargetAtomically) {
  // A reader that opened the old file (here: a hard link to it) keeps the
  // old bytes, because the new ones land in a fresh file renamed over the
  // target instead of truncating it in place.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "mcam_write_file";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string target = (dir / "snap").string();
  const std::vector<std::uint8_t> old_bytes(4096, 0xAB);
  const std::vector<std::uint8_t> new_bytes{1, 2, 3};
  io::write_file(target, old_bytes);
  fs::create_hard_link(target, dir / "old");
  io::write_file(target, new_bytes);
  EXPECT_EQ(io::read_file(target), new_bytes);
  EXPECT_EQ(io::read_file((dir / "old").string()), old_bytes);
  const auto entries = [&] {
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(dir)) {
      names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
  };
  EXPECT_EQ(entries(), (std::vector<std::string>{"old", "snap"}));

  // A rename onto a directory fails after the bytes were written: the
  // error names the target and the temp file is gone.
  fs::create_directory(dir / "taken");
  try {
    io::write_file((dir / "taken").string(), new_bytes);
    ADD_FAILURE() << "wrote over a directory";
  } catch (const io::SnapshotError& error) {
    EXPECT_NE(std::string{error.what()}.find((dir / "taken").string()), std::string::npos)
        << error.what();
  }
  EXPECT_EQ(entries(), (std::vector<std::string>{"old", "snap", "taken"}));
  EXPECT_TRUE(fs::is_empty(dir / "taken"));

  // A missing directory fails at open, naming the target.
  EXPECT_THROW(io::write_file((dir / "missing" / "snap").string(), new_bytes),
               io::SnapshotError);

  // A bare file name lands in the working directory, which is the
  // directory synced after the rename.
  {
    struct RestoreCwd {
      fs::path path = fs::current_path();
      ~RestoreCwd() {
        std::error_code ignored;
        fs::current_path(path, ignored);
      }
    } const restore;
    fs::current_path(dir);
    io::write_file("bare", old_bytes);
    io::write_file("bare", new_bytes);
  }
  EXPECT_EQ(io::read_file((dir / "bare").string()), new_bytes);
  EXPECT_EQ(entries(), (std::vector<std::string>{"bare", "old", "snap", "taken"}));
  fs::remove_all(dir);
}

TEST(SnapshotIo, PrimitivesRoundTripAndBoundsCheck) {
  io::Writer out;
  out.u8(7);
  out.u16(65535);
  out.u32(0xDEADBEEFu);
  out.u64(0x0123456789ABCDEFull);
  out.i32(-42);
  out.f32(3.25f);
  out.f64(-1.0 / 3.0);
  out.str("hello");
  out.vec_f32(std::vector<float>{1.5f, -2.5f});
  io::Reader in{out.buffer()};
  EXPECT_EQ(in.u8(), 7);
  EXPECT_EQ(in.u16(), 65535);
  EXPECT_EQ(in.u32(), 0xDEADBEEFu);
  EXPECT_EQ(in.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(in.i32(), -42);
  EXPECT_EQ(in.f32(), 3.25f);
  EXPECT_EQ(in.f64(), -1.0 / 3.0);
  EXPECT_EQ(in.str(), "hello");
  EXPECT_EQ(in.vec_f32(), (std::vector<float>{1.5f, -2.5f}));
  in.expect_end();
  EXPECT_THROW((void)in.u8(), io::SnapshotError);

  // A absurd length prefix must throw, not allocate.
  io::Writer evil;
  evil.u64(~std::uint64_t{0});
  io::Reader evil_in{evil.buffer()};
  EXPECT_THROW((void)evil_in.vec_f32(), io::SnapshotError);

  // CRC-32 known-answer ("123456789" -> 0xCBF43926).
  const std::string check = "123456789";
  EXPECT_EQ(io::crc32(std::span{reinterpret_cast<const std::uint8_t*>(check.data()),
                                check.size()}),
            0xCBF43926u);
}

}  // namespace
}  // namespace mcam::serve
