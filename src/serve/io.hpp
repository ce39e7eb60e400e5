// Byte-stream layer of the serving subsystem: the little-endian,
// fixed-width primitives every snapshot payload is written with.
//
// The format must be stable across processes and compilers - a snapshot
// written by one server binary is restored by the next - so every integer
// is serialized byte-by-byte in little-endian order (independent of host
// endianness) and every float through its IEEE-754 bit pattern. Reads are
// bounds-checked: a truncated or corrupted payload throws SnapshotError
// instead of reading past the buffer, which is what lets the snapshot
// layer validate untrusted files before touching any engine state. The
// whole-file reader and writer at the bottom are the one place snapshot
// bytes meet the filesystem.
//
// This header is dependency-free on purpose: search/index.hpp forward
// declares Writer/Reader for the NnIndex snapshot hooks, and only the
// engine implementations include it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace mcam::serve::io {

/// Malformed, truncated, or checksum-failing snapshot data.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Payload-consistency guard shared by every load_state implementation:
/// sizes/invariants that must agree after a valid write throw
/// SnapshotError (with the uniform prefix) when they do not. Takes a
/// C-string so hot load loops (e.g. per-trit range checks) allocate
/// nothing on the success path.
inline void require_payload(bool ok, const char* what) {
  if (!ok) throw SnapshotError{std::string{"inconsistent snapshot payload: "} + what};
}

/// Appends little-endian primitives to a growable byte buffer.
class Writer {
 public:
  void u8(std::uint8_t value) { bytes_.push_back(value); }
  void u16(std::uint16_t value);
  void u32(std::uint32_t value);
  void u64(std::uint64_t value);
  void i32(std::int32_t value) { u32(static_cast<std::uint32_t>(value)); }
  void f32(float value);
  void f64(double value);

  /// Length-prefixed (u64) UTF-8/byte string.
  void str(const std::string& value);

  /// Length-prefixed (u64) element vectors.
  void vec_u8(std::span<const std::uint8_t> values);
  void vec_u16(std::span<const std::uint16_t> values);
  void vec_u64(std::span<const std::uint64_t> values);
  void vec_i32(std::span<const int> values);
  void vec_f32(std::span<const float> values);

  /// Raw bytes, no length prefix (header fields).
  void raw(std::span<const std::uint8_t> values);

  /// Everything written so far.
  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const noexcept { return bytes_; }
  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size(); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked reader over a byte span; throws SnapshotError on any
/// read past the end (the caller keeps the bytes alive).
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  [[nodiscard]] float f32();
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();
  [[nodiscard]] std::vector<std::uint8_t> vec_u8();
  [[nodiscard]] std::vector<std::uint16_t> vec_u16();
  [[nodiscard]] std::vector<std::uint64_t> vec_u64();
  [[nodiscard]] std::vector<int> vec_i32();
  [[nodiscard]] std::vector<float> vec_f32();

  /// Bytes not yet consumed.
  [[nodiscard]] std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

  /// Throws unless the payload was consumed exactly (trailing garbage is
  /// as suspicious as truncation).
  void expect_end() const;

  /// Validates an element count that was written with a plain `u64()`
  /// (rather than a length-prefixed vector) against the bytes remaining:
  /// each element needs at least `min_elem_bytes`, so a corrupted count
  /// throws here instead of driving a huge `reserve`. Returns the count.
  [[nodiscard]] std::size_t checked_count(std::uint64_t count,
                                          std::size_t min_elem_bytes) const;

 private:
  /// Advances past `n` bytes, throwing on truncation; returns their start.
  const std::uint8_t* take(std::size_t n);
  /// Reads a u64 length prefix and validates `elem_size * count` fits.
  [[nodiscard]] std::size_t length_prefix(std::size_t elem_size);

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `bytes` - the
/// snapshot integrity checksum.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept;

/// Reads an engine payload tag written with `Writer::str` and throws
/// SnapshotError unless it equals `tag` - a mismatch means the payload was
/// written by a different backend than the one restoring it. Shared by
/// every `load_state` implementation.
void expect_tag(Reader& in, const std::string& tag);

/// Whole-file byte IO shared by index snapshots, collection snapshots and
/// the collection manager's manifest; throws SnapshotError naming `path`
/// when the file cannot be opened or on a short read or write.
/// `write_file` writes a unique sibling temp file, fsyncs it and renames it
/// over `path`, so the target holds its old bytes or the new ones, never a
/// torn mix; on failure it removes the temp file and leaves `path` as it was.
/// It then fsyncs the parent directory (`.` for a bare file name), so the
/// rename survives a power cut; a failure there throws too, with the new
/// bytes already in place.
void write_file(const std::string& path, std::span<const std::uint8_t> bytes);
[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path);

}  // namespace mcam::serve::io
