#include "store/collection.hpp"

#include "serve/io.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

namespace mcam::store {

namespace {

constexpr const char* kCollectionPayloadTag = "store-collection-v1";

}  // namespace

FilterPolicy parse_filter_policy(const std::string& value) {
  if (value.empty() || value == "auto" || value == "post") return FilterPolicy::kPost;
  if (value == "band") return FilterPolicy::kBand;
  throw std::invalid_argument{"unknown filter policy '" + value +
                              "' (expected auto | band | post)"};
}

Collection::Collection(std::string name, const std::string& spec,
                       const search::EngineConfig& base)
    : name_(std::move(name)) {
  if (name_.empty()) throw std::invalid_argument{"Collection: empty name"};
  spec_ = search::parse_engine_spec(spec, base);
  engine_ = search::make_index(spec_.name, spec_.config);
  two_stage_ = dynamic_cast<search::TwoStageNnIndex*>(engine_.get());
  policy_ = parse_filter_policy(spec_.config.filter_policy);
}

bool Collection::band_capable() const noexcept {
  return two_stage_ != nullptr && two_stage_->tag_bits() > 0 &&
         !two_stage_->config().exhaustive_fallback;
}

void Collection::calibrate(std::span<const std::vector<float>> rows) {
  engine_->calibrate(rows);
}

std::size_t Collection::add(std::span<const std::vector<float>> rows,
                            std::span<const int> labels) {
  return add(rows, labels, {}, {});
}

std::size_t Collection::add(std::span<const std::vector<float>> rows,
                            std::span<const int> labels,
                            std::span<const std::vector<std::string>> tags,
                            std::span<const std::uint64_t> expires_at) {
  if (!tags.empty() && tags.size() != rows.size()) {
    throw std::invalid_argument{"Collection::add: one tag list per row required"};
  }
  if (!expires_at.empty() && expires_at.size() != rows.size()) {
    throw std::invalid_argument{"Collection::add: one expiry tick per row required"};
  }
  // Metadata first, inside the rollback scope: truncate() undoes it,
  // posting lists included, if a tag is rejected (empty) or the engine
  // rejects the batch (bank capacity, bad shape).
  const std::size_t first = meta_.rows();
  try {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      meta_.append(tags.empty() ? std::span<const std::string>{} : std::span(tags[r]),
                   expires_at.empty() ? 0 : expires_at[r]);
    }
    if (band_capable()) {
      const std::size_t width = two_stage_->tag_bits();
      std::vector<std::vector<std::uint8_t>> bands;
      bands.reserve(rows.size());
      for (std::size_t r = 0; r < rows.size(); ++r) {
        bands.push_back(meta_.band_bits(first + r, width));
      }
      two_stage_->add_tagged(rows, labels, bands);
    } else {
      engine_->add(rows, labels);
    }
  } catch (...) {
    meta_.truncate(first);
    throw;
  }
  ++generation_;
  return first;
}

bool Collection::erase(std::size_t id) {
  // The engine is authoritative for the erase contract (out_of_range on a
  // never-added id must fire before the metadata mirror moves).
  if (!engine_->erase(id)) return false;
  meta_.mark_erased(id);
  ++generation_;
  return true;
}

std::size_t Collection::expire(std::uint64_t now) {
  const std::vector<std::size_t> due = meta_.expired_ids(now);
  for (std::size_t id : due) erase(id);
  return due.size();
}

CollectionQueryResult Collection::query(std::span<const float> query, std::size_t k,
                                        const Predicate& predicate) const {
  CollectionQueryResult out;
  if (predicate.empty()) {
    out.result = engine_->query_one(query, k);
    return out;
  }
  // Names resolve to tag ids once; matching and the band's per-nominee
  // verify then compare ids only.
  const std::size_t live = meta_.live();
  const std::optional<std::vector<std::uint32_t>> tags = meta_.resolve(predicate);
  const std::vector<std::size_t> matching =
      tags ? meta_.matching_ids(*tags) : std::vector<std::size_t>{};
  if (matching.empty()) {
    throw std::invalid_argument{"Collection::query: no live row matches " +
                                predicate.to_string()};
  }
  out.selectivity =
      live == 0 ? 0.0 : static_cast<double>(matching.size()) / static_cast<double>(live);
  if (policy_ == FilterPolicy::kBand && band_capable()) {
    const std::vector<std::uint8_t> band = meta_.band_query(*tags, two_stage_->tag_bits());
    const auto verify = [this, &tags](std::size_t id) { return meta_.matches(id, *tags); };
    if (auto result = two_stage_->query_filtered(query, k, band, verify)) {
      out.result = *std::move(result);
      out.path = FilterPath::kBand;
      return out;
    }
  }
  out.result = engine_->query_subset(query, matching, k);
  out.result.telemetry.filtered_out = live - matching.size();
  out.path = FilterPath::kPostFilter;
  return out;
}

std::vector<std::uint8_t> Collection::snapshot() const {
  serve::io::Writer payload;
  payload.str(kCollectionPayloadTag);
  payload.u64(generation_);
  meta_.save(payload);

  serve::StoreBlock block;
  block.collection = name_;
  block.metadata_rows = meta_.rows();
  block.metadata_tags = meta_.tag_count();
  block.payload = payload.buffer();
  return serve::save(*engine_, spec_.name, spec_.config, block);
}

void Collection::save_file(const std::string& path) const {
  serve::io::write_file(path, snapshot());
}

std::unique_ptr<Collection> Collection::restore(std::span<const std::uint8_t> blob) {
  serve::StoreBlock block;
  serve::SnapshotInfo info;
  std::unique_ptr<search::NnIndex> engine = serve::load_with_store(blob, block, &info);
  if (!info.has_store) {
    throw serve::io::SnapshotError{
        "snapshot carries no store block (a plain engine snapshot is not a collection)"};
  }

  auto collection = std::unique_ptr<Collection>(new Collection());
  collection->name_ = block.collection;
  collection->spec_.name = info.engine;
  collection->spec_.config = info.config;
  collection->engine_ = std::move(engine);
  collection->two_stage_ =
      dynamic_cast<search::TwoStageNnIndex*>(collection->engine_.get());
  collection->policy_ = parse_filter_policy(info.config.filter_policy);

  serve::io::Reader in(block.payload);
  serve::io::expect_tag(in, kCollectionPayloadTag);
  collection->generation_ = in.u64();
  collection->meta_.load(in);
  in.expect_end();

  serve::io::require_payload(collection->meta_.rows() == block.metadata_rows,
                             "store block row count mismatch");
  serve::io::require_payload(collection->meta_.tag_count() == block.metadata_tags,
                             "store block tag count mismatch");
  serve::io::require_payload(collection->meta_.live() == collection->engine_->size(),
                             "metadata live count disagrees with engine");
  return collection;
}

std::unique_ptr<Collection> Collection::load_file(const std::string& path) {
  return restore(serve::io::read_file(path));
}

}  // namespace mcam::store
