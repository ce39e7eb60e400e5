#include "serve/snapshot.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <initializer_list>
#include <string_view>
#include <utility>

namespace mcam::serve {

namespace {

constexpr std::array<std::uint8_t, 8> kMagic = {'M', 'C', 'A', 'M', 'S', 'N', 'A', 'P'};
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8;

void write_config(io::Writer& out, const search::EngineConfig& config) {
  out.u64(config.num_features);
  out.u32(config.mcam_bits);
  out.u64(config.lsh_bits);
  out.f64(config.vth_sigma);
  out.u8(static_cast<std::uint8_t>(config.sensing));
  out.f64(config.sense_clock_period);
  out.f64(config.clip_percentile);
  out.u64(config.seed);
  out.u64(config.bank_rows);
  out.u64(1);  // The retired shard_workers slot: 1 reads as sequential.
  out.u64(config.coarse_bits);
  out.u64(config.candidate_factor);
  out.u8(config.refine_exhaustive ? 1 : 0);
  out.str(config.fine_spec);
  out.str(config.sig_model);
  out.u64(config.probes);
  out.u64(config.tag_bits);
  out.str(config.filter_policy);
  out.str(config.rerank);
}

/// Reads one f64 config field under the spec parser's rule: every double
/// key is a physical magnitude, finite and >= 0.
double read_magnitude(io::Reader& in, const char* field) {
  const double value = in.f64();
  if (!std::isfinite(value) || value < 0.0) {
    throw io::SnapshotError{std::string{"snapshot config has a bad "} + field +
                            " (must be finite and >= 0)"};
  }
  return value;
}

/// Reads one mode string under the spec parser's rule: empty (the
/// default) or one of `known`.
std::string read_mode(io::Reader& in, const char* field,
                      std::initializer_list<std::string_view> known) {
  std::string value = in.str();
  if (!value.empty() && std::find(known.begin(), known.end(), value) == known.end()) {
    throw io::SnapshotError{"snapshot config has unknown " + std::string{field} + " '" +
                            value + "'"};
  }
  return value;
}

search::EngineConfig read_config(io::Reader& in, std::uint32_t version) {
  search::EngineConfig config;
  config.num_features = in.u64();
  config.mcam_bits = in.u32();
  config.lsh_bits = in.u64();
  config.vth_sigma = read_magnitude(in, "vth_sigma");
  const std::uint8_t sensing = in.u8();
  if (sensing > static_cast<std::uint8_t>(cam::SensingMode::kMatchlineTiming)) {
    throw io::SnapshotError{"snapshot has unknown sensing mode " + std::to_string(sensing)};
  }
  config.sensing = static_cast<cam::SensingMode>(sensing);
  config.sense_clock_period = read_magnitude(in, "sense_clock_period");
  config.clip_percentile = read_magnitude(in, "clip_percentile");
  config.seed = in.u64();
  config.bank_rows = in.u64();
  (void)in.u64();  // The retired shard_workers slot.
  config.coarse_bits = in.u64();
  config.candidate_factor = in.u64();
  config.refine_exhaustive = in.u8() != 0;
  config.fine_spec = in.str();
  if (version >= 3) {
    config.sig_model = in.str();
    config.probes = in.u64();
  } else {
    // v2 predates the signature-model subsystem: those blobs were written
    // by the random-hyperplane single-probe coarse stage, which is what
    // the empty-string/0 defaults rebuild (refine resolves them to
    // sig_model = "random", probes = 1).
    config.sig_model.clear();
    config.probes = 0;
  }
  if (version >= 4) {
    config.tag_bits = in.u64();
    config.filter_policy = read_mode(in, "filter_policy", {"auto", "band", "post"});
  } else {
    // Pre-v4 blobs predate filtered search: no tag band, auto policy.
    config.tag_bits = 0;
    config.filter_policy.clear();
  }
  if (version >= 5) {
    config.rerank = read_mode(in, "rerank", {"fp32", "int8"});
  } else {
    // Pre-v5 blobs predate the rerank kernel layer; they were written by
    // FP32-only software engines, which the empty default rebuilds.
    config.rerank.clear();
  }
  return config;
}

/// Reads the v4 optional store block (header summary + opaque payload)
/// into `info`/`store`; pre-v4 payloads have no block byte at all.
void read_store_block(io::Reader& in, SnapshotInfo& info, StoreBlock* store) {
  if (info.version < 4) return;
  if (in.u8() == 0) return;
  info.has_store = true;
  info.collection = in.str();
  info.metadata_rows = in.u64();
  info.metadata_tags = in.u64();
  std::vector<std::uint8_t> payload = in.vec_u8();
  if (store != nullptr) {
    store->collection = info.collection;
    store->metadata_rows = info.metadata_rows;
    store->metadata_tags = info.metadata_tags;
    store->payload = std::move(payload);
  }
}

/// Validates magic/version/length/checksum and returns a reader over the
/// payload bytes (still backed by `blob`).
io::Reader checked_payload(std::span<const std::uint8_t> blob, SnapshotInfo& info) {
  if (blob.size() < kHeaderBytes) {
    throw io::SnapshotError{"snapshot shorter than its header (" +
                            std::to_string(blob.size()) + " bytes)"};
  }
  for (std::size_t i = 0; i < kMagic.size(); ++i) {
    if (blob[i] != kMagic[i]) throw io::SnapshotError{"bad snapshot magic"};
  }
  io::Reader header{blob.subspan(kMagic.size(), kHeaderBytes - kMagic.size())};
  info.version = header.u32();
  if (info.version < kMinSnapshotVersion || info.version > kSnapshotVersion) {
    throw io::SnapshotError{"unsupported snapshot version " + std::to_string(info.version) +
                            " (this build reads versions " +
                            std::to_string(kMinSnapshotVersion) + ".." +
                            std::to_string(kSnapshotVersion) + ")"};
  }
  info.checksum = header.u32();
  const std::uint64_t payload_len = header.u64();
  if (payload_len != blob.size() - kHeaderBytes) {
    throw io::SnapshotError{"snapshot payload length mismatch (header says " +
                            std::to_string(payload_len) + ", file has " +
                            std::to_string(blob.size() - kHeaderBytes) + ")"};
  }
  const std::span<const std::uint8_t> payload = blob.subspan(kHeaderBytes);
  const std::uint32_t crc = io::crc32(payload);
  if (crc != info.checksum) {
    throw io::SnapshotError{"snapshot checksum mismatch (corrupted payload)"};
  }
  info.payload_bytes = payload.size();
  return io::Reader{payload};
}

}  // namespace

namespace {

std::vector<std::uint8_t> save_impl(const search::NnIndex& index, const std::string& name,
                                    const search::EngineConfig& config,
                                    const StoreBlock* store) {
  // Normalize spec strings so the embedded recipe is always a bare
  // registry key + full effective config.
  const search::EngineSpec spec = search::parse_engine_spec(name, config);
  io::Writer payload;
  payload.str(spec.name);
  write_config(payload, spec.config);
  payload.u8(store != nullptr ? 1 : 0);
  if (store != nullptr) {
    payload.str(store->collection);
    payload.u64(store->metadata_rows);
    payload.u64(store->metadata_tags);
    payload.vec_u8(store->payload);
  }
  index.save_state(payload);

  io::Writer blob;
  blob.raw(kMagic);
  blob.u32(kSnapshotVersion);
  blob.u32(io::crc32(payload.buffer()));
  blob.u64(payload.size());
  blob.raw(payload.buffer());
  return blob.buffer();
}

std::unique_ptr<search::NnIndex> load_impl(std::span<const std::uint8_t> blob,
                                           StoreBlock* store, SnapshotInfo* info_out) {
  SnapshotInfo info;
  io::Reader payload = checked_payload(blob, info);
  info.engine = payload.str();
  info.config = read_config(payload, info.version);
  read_store_block(payload, info, store);
  std::unique_ptr<search::NnIndex> index =
      search::EngineFactory::instance().create(info.engine, info.config);
  index->load_state(payload);
  payload.expect_end();
  if (info_out != nullptr) *info_out = info;
  return index;
}

}  // namespace

std::vector<std::uint8_t> save(const search::NnIndex& index, const std::string& name,
                               const search::EngineConfig& config) {
  return save_impl(index, name, config, nullptr);
}

std::vector<std::uint8_t> save(const search::NnIndex& index, const std::string& name,
                               const search::EngineConfig& config,
                               const StoreBlock& store) {
  return save_impl(index, name, config, &store);
}

SnapshotInfo inspect(std::span<const std::uint8_t> blob) {
  SnapshotInfo info;
  io::Reader payload = checked_payload(blob, info);
  info.engine = payload.str();
  info.config = read_config(payload, info.version);
  read_store_block(payload, info, nullptr);
  return info;
}

std::unique_ptr<search::NnIndex> load(std::span<const std::uint8_t> blob) {
  return load_impl(blob, nullptr, nullptr);
}

std::unique_ptr<search::NnIndex> load_with_store(std::span<const std::uint8_t> blob,
                                                 StoreBlock& store, SnapshotInfo* info) {
  store = StoreBlock{};
  return load_impl(blob, &store, info);
}

void save_file(const search::NnIndex& index, const std::string& name,
               const search::EngineConfig& config, const std::string& path) {
  io::write_file(path, save(index, name, config));
}

std::unique_ptr<search::NnIndex> load_file(const std::string& path) {
  return load(io::read_file(path));
}

}  // namespace mcam::serve
