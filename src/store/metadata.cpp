#include "store/metadata.hpp"

#include <algorithm>
#include <stdexcept>

namespace mcam::store {

namespace {

/// True when `record` carries every tag of `tags`.
bool carries_all(const RowMetadata& record, std::span<const std::uint32_t> tags) {
  return std::all_of(tags.begin(), tags.end(), [&record](std::uint32_t tag) {
    return std::binary_search(record.tags.begin(), record.tags.end(), tag);
  });
}

}  // namespace

std::size_t band_slot(std::uint32_t tag_id, std::size_t tag_bits) {
  if (tag_bits == 0) throw std::invalid_argument{"band_slot: tag_bits must be > 0"};
  // splitmix64 finalizer: dense interner ids land on uncorrelated slots.
  std::uint64_t z = static_cast<std::uint64_t>(tag_id) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z = z ^ (z >> 31);
  return static_cast<std::size_t>(z % tag_bits);
}

std::uint32_t MetadataStore::add_tag(const std::string& name) {
  const auto id = static_cast<std::uint32_t>(tag_names_.size());
  tag_names_.push_back(name);
  tag_ids_.emplace(name, id);
  postings_.emplace_back();
  return id;
}

std::size_t MetadataStore::push_row(RowMetadata record) {
  const std::size_t id = rows_.size();
  for (std::uint32_t tag : record.tags) postings_[tag].push_back(id);
  if (!record.erased) ++live_;
  rows_.push_back(std::move(record));
  return id;
}

std::uint32_t MetadataStore::intern_tag(const std::string& name) {
  if (name.empty()) throw std::invalid_argument{"MetadataStore: empty tag"};
  const auto it = tag_ids_.find(name);
  return it != tag_ids_.end() ? it->second : add_tag(name);
}

std::size_t MetadataStore::append(std::span<const std::string> tags,
                                  std::uint64_t expires_at) {
  RowMetadata record;
  record.tags.reserve(tags.size());
  for (const std::string& name : tags) record.tags.push_back(intern_tag(name));
  std::sort(record.tags.begin(), record.tags.end());
  record.tags.erase(std::unique(record.tags.begin(), record.tags.end()),
                    record.tags.end());
  record.expires_at = expires_at;
  return push_row(std::move(record));
}

void MetadataStore::truncate(std::size_t count) {
  if (count > rows_.size()) {
    throw std::invalid_argument{"MetadataStore::truncate: count exceeds rows"};
  }
  while (rows_.size() > count) {
    // The last row is the last entry of each of its tags' lists.
    for (std::uint32_t tag : rows_.back().tags) postings_[tag].pop_back();
    if (!rows_.back().erased) --live_;
    rows_.pop_back();
  }
}

bool MetadataStore::mark_erased(std::size_t id) {
  if (id >= rows_.size()) throw std::out_of_range{"MetadataStore: unknown row id"};
  if (rows_[id].erased) return false;
  rows_[id].erased = true;
  --live_;
  return true;
}

const RowMetadata& MetadataStore::row(std::size_t id) const {
  if (id >= rows_.size()) throw std::out_of_range{"MetadataStore: unknown row id"};
  return rows_[id];
}

std::optional<std::uint32_t> MetadataStore::find_tag(const std::string& name) const {
  const auto it = tag_ids_.find(name);
  if (it == tag_ids_.end()) return std::nullopt;
  return it->second;
}

const std::string& MetadataStore::tag_name(std::uint32_t id) const {
  if (id >= tag_names_.size()) throw std::out_of_range{"MetadataStore: unknown tag id"};
  return tag_names_[id];
}

std::optional<std::vector<std::uint32_t>> MetadataStore::resolve(
    const Predicate& predicate) const {
  std::vector<std::uint32_t> tags;
  tags.reserve(predicate.all_of.size());
  for (const std::string& name : predicate.all_of) {
    const std::optional<std::uint32_t> tag = find_tag(name);
    if (!tag) return std::nullopt;
    tags.push_back(*tag);
  }
  return tags;
}

bool MetadataStore::matches(std::size_t id, const Predicate& predicate) const {
  const RowMetadata& record = row(id);
  if (record.erased) return false;
  for (const std::string& name : predicate.all_of) {
    const std::optional<std::uint32_t> tag = find_tag(name);
    if (!tag) return false;  // Never interned: no row carries it.
    if (!std::binary_search(record.tags.begin(), record.tags.end(), *tag)) return false;
  }
  return true;
}

bool MetadataStore::matches(std::size_t id, std::span<const std::uint32_t> tags) const {
  const RowMetadata& record = row(id);
  return !record.erased && carries_all(record, tags);
}

std::vector<std::size_t> MetadataStore::matching_ids(const Predicate& predicate) const {
  const std::optional<std::vector<std::uint32_t>> tags = resolve(predicate);
  return tags ? matching_ids(*tags) : std::vector<std::size_t>{};
}

std::vector<std::size_t> MetadataStore::matching_ids(
    std::span<const std::uint32_t> tags) const {
  std::vector<std::size_t> ids;
  if (tags.empty()) {
    for (std::size_t id = 0; id < rows_.size(); ++id) {
      if (!rows_[id].erased) ids.push_back(id);
    }
    return ids;
  }
  // Every match is on each of its tags' lists: walk the shortest one and
  // check only the other tags per row.
  std::uint32_t walk = tags.front();
  for (std::uint32_t tag : tags) {
    if (tag >= postings_.size()) return ids;  // Never interned: no row carries it.
    if (postings_[tag].size() < postings_[walk].size()) walk = tag;
  }
  std::vector<std::uint32_t> others;
  for (std::uint32_t tag : tags) {
    if (tag != walk) others.push_back(tag);
  }
  const std::vector<std::size_t>& list = postings_[walk];
  ids.reserve(list.size());
  for (std::size_t id : list) {
    // A one-tag predicate needs only the erased flag; testing `others`
    // here rather than inside carries_all halves the walk's time.
    const RowMetadata& record = rows_[id];
    if (!record.erased && (others.empty() || carries_all(record, others))) ids.push_back(id);
  }
  return ids;
}

std::vector<std::size_t> MetadataStore::expired_ids(std::uint64_t now) const {
  std::vector<std::size_t> ids;
  for (std::size_t id = 0; id < rows_.size(); ++id) {
    const RowMetadata& record = rows_[id];
    if (!record.erased && record.expires_at != 0 && record.expires_at <= now) {
      ids.push_back(id);
    }
  }
  return ids;
}

std::vector<std::uint8_t> MetadataStore::band_bits(std::size_t id,
                                                   std::size_t tag_bits) const {
  const RowMetadata& record = row(id);
  std::vector<std::uint8_t> bits(tag_bits, 0);
  for (std::uint32_t tag : record.tags) bits[band_slot(tag, tag_bits)] = 1;
  return bits;
}

std::optional<std::vector<std::uint8_t>> MetadataStore::band_query(
    const Predicate& predicate, std::size_t tag_bits) const {
  const std::optional<std::vector<std::uint32_t>> tags = resolve(predicate);
  if (!tags) return std::nullopt;
  return band_query(*tags, tag_bits);
}

std::vector<std::uint8_t> MetadataStore::band_query(std::span<const std::uint32_t> tags,
                                                    std::size_t tag_bits) const {
  std::vector<std::uint8_t> bits(tag_bits, 0);
  for (std::uint32_t tag : tags) bits[band_slot(tag, tag_bits)] = 1;
  return bits;
}

void MetadataStore::save(serve::io::Writer& out) const {
  out.str("store-meta-v1");
  out.u64(tag_names_.size());
  for (const std::string& name : tag_names_) out.str(name);
  out.u64(rows_.size());
  for (const RowMetadata& record : rows_) {
    out.u64(record.tags.size());
    for (std::uint32_t tag : record.tags) out.u32(tag);
    out.u64(record.expires_at);
    out.u8(record.erased ? 1 : 0);
  }
}

void MetadataStore::load(serve::io::Reader& in) {
  serve::io::expect_tag(in, "store-meta-v1");
  tag_names_.clear();
  tag_ids_.clear();
  rows_.clear();
  postings_.clear();
  live_ = 0;
  const std::size_t num_tags = in.checked_count(in.u64(), 8);
  tag_names_.reserve(num_tags);
  for (std::size_t t = 0; t < num_tags; ++t) {
    const std::string name = in.str();
    serve::io::require_payload(!name.empty(), "empty interned tag");
    serve::io::require_payload(tag_ids_.find(name) == tag_ids_.end(),
                               "duplicate interned tag");
    add_tag(name);
  }
  const std::size_t num_rows = in.checked_count(in.u64(), 8 + 8 + 1);
  rows_.reserve(num_rows);
  for (std::size_t r = 0; r < num_rows; ++r) {
    RowMetadata record;
    const std::size_t num_row_tags = in.checked_count(in.u64(), 4);
    record.tags.reserve(num_row_tags);
    std::uint32_t previous = 0;
    for (std::size_t t = 0; t < num_row_tags; ++t) {
      const std::uint32_t tag = in.u32();
      serve::io::require_payload(tag < tag_names_.size(), "row tag id out of range");
      serve::io::require_payload(t == 0 || tag > previous,
                                 "row tags not sorted/unique");
      record.tags.push_back(tag);
      previous = tag;
    }
    record.expires_at = in.u64();
    record.erased = in.u8() != 0;
    push_row(std::move(record));
  }
}

}  // namespace mcam::store
