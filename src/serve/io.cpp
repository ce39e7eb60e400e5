#include "serve/io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace mcam::serve::io {

namespace {

/// Precomputed reflected CRC-32 table for polynomial 0xEDB88320.
const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
      t[i] = crc;
    }
    return t;
  }();
  return table;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept {
  const auto& table = crc_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::uint8_t byte : bytes) {
    crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

// --- Writer ----------------------------------------------------------------

void Writer::u16(std::uint16_t value) {
  bytes_.push_back(static_cast<std::uint8_t>(value));
  bytes_.push_back(static_cast<std::uint8_t>(value >> 8));
}

void Writer::u32(std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    bytes_.push_back(static_cast<std::uint8_t>(value >> shift));
  }
}

void Writer::u64(std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    bytes_.push_back(static_cast<std::uint8_t>(value >> shift));
  }
}

void Writer::f32(float value) { u32(std::bit_cast<std::uint32_t>(value)); }

void Writer::f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }

void Writer::str(const std::string& value) {
  u64(value.size());
  bytes_.insert(bytes_.end(), value.begin(), value.end());
}

void Writer::vec_u8(std::span<const std::uint8_t> values) {
  u64(values.size());
  bytes_.insert(bytes_.end(), values.begin(), values.end());
}

void Writer::vec_u16(std::span<const std::uint16_t> values) {
  u64(values.size());
  for (std::uint16_t v : values) u16(v);
}

void Writer::vec_u64(std::span<const std::uint64_t> values) {
  u64(values.size());
  for (std::uint64_t v : values) u64(v);
}

void Writer::vec_i32(std::span<const int> values) {
  u64(values.size());
  for (int v : values) i32(v);
}

void Writer::vec_f32(std::span<const float> values) {
  u64(values.size());
  for (float v : values) f32(v);
}

void Writer::raw(std::span<const std::uint8_t> values) {
  bytes_.insert(bytes_.end(), values.begin(), values.end());
}

// --- Reader ----------------------------------------------------------------

const std::uint8_t* Reader::take(std::size_t n) {
  if (n > bytes_.size() - pos_) {
    throw SnapshotError{"snapshot payload truncated (need " + std::to_string(n) +
                        " bytes, have " + std::to_string(bytes_.size() - pos_) + ")"};
  }
  const std::uint8_t* start = bytes_.data() + pos_;
  pos_ += n;
  return start;
}

std::size_t Reader::length_prefix(std::size_t elem_size) {
  const std::uint64_t count = u64();
  // Reject lengths the remaining buffer cannot possibly hold; a corrupted
  // prefix must not drive a multi-gigabyte allocation.
  if (elem_size > 0 && count > remaining() / elem_size) {
    throw SnapshotError{"snapshot length prefix exceeds payload (" +
                        std::to_string(count) + " elements)"};
  }
  return static_cast<std::size_t>(count);
}

std::uint8_t Reader::u8() { return *take(1); }

std::uint16_t Reader::u16() {
  const std::uint8_t* p = take(2);
  return static_cast<std::uint16_t>(p[0] | (std::uint16_t{p[1]} << 8));
}

std::uint32_t Reader::u32() {
  const std::uint8_t* p = take(4);
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) value |= std::uint32_t{p[i]} << (8 * i);
  return value;
}

std::uint64_t Reader::u64() {
  const std::uint8_t* p = take(8);
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) value |= std::uint64_t{p[i]} << (8 * i);
  return value;
}

float Reader::f32() { return std::bit_cast<float>(u32()); }

double Reader::f64() { return std::bit_cast<double>(u64()); }

std::string Reader::str() {
  const std::size_t n = length_prefix(1);
  const std::uint8_t* p = take(n);
  return std::string{reinterpret_cast<const char*>(p), n};
}

std::vector<std::uint8_t> Reader::vec_u8() {
  const std::size_t n = length_prefix(1);
  const std::uint8_t* p = take(n);
  return std::vector<std::uint8_t>{p, p + n};
}

std::vector<std::uint16_t> Reader::vec_u16() {
  const std::size_t n = length_prefix(2);
  std::vector<std::uint16_t> values(n);
  for (auto& v : values) v = u16();
  return values;
}

std::vector<std::uint64_t> Reader::vec_u64() {
  const std::size_t n = length_prefix(8);
  std::vector<std::uint64_t> values(n);
  for (auto& v : values) v = u64();
  return values;
}

std::vector<int> Reader::vec_i32() {
  const std::size_t n = length_prefix(4);
  std::vector<int> values(n);
  for (auto& v : values) v = i32();
  return values;
}

std::vector<float> Reader::vec_f32() {
  const std::size_t n = length_prefix(4);
  std::vector<float> values(n);
  for (auto& v : values) v = f32();
  return values;
}

void Reader::expect_end() const {
  if (pos_ != bytes_.size()) {
    throw SnapshotError{"snapshot payload has " + std::to_string(bytes_.size() - pos_) +
                        " trailing bytes"};
  }
}

std::size_t Reader::checked_count(std::uint64_t count, std::size_t min_elem_bytes) const {
  if (min_elem_bytes > 0 && count > remaining() / min_elem_bytes) {
    throw SnapshotError{"snapshot element count exceeds payload (" +
                        std::to_string(count) + " elements)"};
  }
  return static_cast<std::size_t>(count);
}

void expect_tag(Reader& in, const std::string& tag) {
  const std::string found = in.str();
  if (found != tag) {
    throw SnapshotError{"engine payload tag mismatch: expected '" + tag + "', found '" +
                        found + "'"};
  }
}

void write_file(const std::string& path, std::span<const std::uint8_t> bytes) {
  // The bytes go to a unique sibling file and reach the disk before a
  // rename puts that file in the target's place. The rename is atomic, so
  // a crash mid-save leaves the old file or the new one, never a torn mix,
  // and a reader that opened the old file keeps reading the old bytes. A
  // final fsync of the parent directory makes the rename itself durable.
  static std::atomic<std::uint64_t> sequence{0};
  std::string temp;
  int fd = -1;
  for (int attempt = 0; fd < 0 && attempt < 16; ++attempt) {
    temp = path + ".tmp-" + std::to_string(::getpid()) + "-" +
           std::to_string(sequence.fetch_add(1));
    fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
    if (fd < 0 && errno != EEXIST) break;
  }
  if (fd < 0) throw SnapshotError{"cannot open '" + path + "' for writing"};
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ::ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    written += static_cast<std::size_t>(n);
  }
  const bool synced = written == bytes.size() && ::fsync(fd) == 0;
  if (::close(fd) != 0 || !synced) {
    ::unlink(temp.c_str());
    throw SnapshotError{"short write to '" + path + "'"};
  }
  if (::rename(temp.c_str(), path.c_str()) != 0) {
    ::unlink(temp.c_str());
    throw SnapshotError{"cannot replace '" + path + "'"};
  }
  const std::size_t slash = path.rfind('/');
  const std::string dir =
      slash == std::string::npos ? "." : (slash == 0 ? "/" : path.substr(0, slash));
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  const bool dir_synced = dir_fd >= 0 && ::fsync(dir_fd) == 0;
  if ((dir_fd >= 0 && ::close(dir_fd) != 0) || !dir_synced) {
    throw SnapshotError{"cannot sync the directory of '" + path + "'"};
  }
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    throw SnapshotError{"cannot open '" + path + "' for reading"};
  }
  std::vector<std::uint8_t> bytes;
  std::array<std::uint8_t, 64 * 1024> chunk;
  std::size_t got = 0;
  while ((got = std::fread(chunk.data(), 1, chunk.size(), file)) > 0) {
    bytes.insert(bytes.end(), chunk.begin(), chunk.begin() + static_cast<std::ptrdiff_t>(got));
  }
  const bool clean = std::ferror(file) == 0;
  std::fclose(file);
  if (!clean) throw SnapshotError{"read error on '" + path + "'"};
  return bytes;
}

}  // namespace mcam::serve::io
