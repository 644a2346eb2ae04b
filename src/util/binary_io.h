// Flat little-endian binary encoding, the substrate of the kgpack snapshot
// format (kg/snapshot.h).
//
// BinaryWriter appends fixed-width scalars, length-prefixed strings, and
// whole trivially-copyable vectors (one bulk memcpy each) to a growing byte
// buffer. BinaryReader is the bounds-checked mirror: every read validates
// against the remaining bytes and returns a precise Status instead of
// crashing, so corrupt or truncated input is always a recoverable error.
// Floats and doubles round-trip bit-exactly (raw IEEE-754 bits, no text).
#ifndef KGSEARCH_UTIL_BINARY_IO_H_
#define KGSEARCH_UTIL_BINARY_IO_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace kgsearch {

// The format stores native little-endian bytes; big-endian hosts would need
// byte swapping that nothing in the target environments exercises.
static_assert(std::endian::native == std::endian::little,
              "kgpack binary I/O assumes a little-endian host");

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320). Crc32("123456789")
/// == 0xCBF43926, the standard check value.
uint32_t Crc32(const void* data, size_t size);
inline uint32_t Crc32(std::string_view bytes) {
  return Crc32(bytes.data(), bytes.size());
}

/// Incremental CRC-32 over chunked input: start from 0, fold each chunk in
/// order. Crc32Update over any chunking of a byte stream equals the
/// one-shot Crc32 of the whole stream, so the kgpack writer's file sink
/// (kg/snapshot_stream.h), which never holds the full payload, computes the
/// same header checksum its in-memory sink does.
uint32_t Crc32Update(uint32_t crc, const void* data, size_t size);

/// Append-only byte buffer with typed little-endian writers.
class BinaryWriter {
 public:
  BinaryWriter() = default;

  void WriteU8(uint8_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU32(uint32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteI64(int64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteFloat(float v) { WriteRaw(&v, sizeof(v)); }
  void WriteDouble(double v) { WriteRaw(&v, sizeof(v)); }

  /// Raw bytes, no length prefix.
  void WriteRaw(const void* data, size_t size) {
    buffer_.append(static_cast<const char*>(data), size);
  }

  /// u64 byte length + bytes. Embedded NULs are preserved.
  void WriteString(std::string_view s) {
    WriteU64(s.size());
    WriteRaw(s.data(), s.size());
  }

  /// u64 element count + one bulk copy of the element bytes. T must be
  /// trivially copyable with no padding, so the bytes are well defined.
  template <typename T>
  void WriteVector(const std::vector<T>& v) {
    // Padding-free element bytes; floating-point types are exempt from the
    // unique-representation trait (it is false for them by definition) but
    // their raw IEEE-754 bits copy exactly.
    static_assert(std::is_trivially_copyable_v<T> &&
                  (std::is_floating_point_v<T> ||
                   std::has_unique_object_representations_v<T>));
    WriteU64(v.size());
    if (!v.empty()) WriteRaw(v.data(), v.size() * sizeof(T));
  }

  size_t size() const { return buffer_.size(); }
  const std::string& buffer() const { return buffer_; }
  std::string Release() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

/// Bounds-checked little-endian reader over a borrowed byte span.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  Status ReadU8(uint8_t* out) { return ReadRaw(out, sizeof(*out)); }
  Status ReadU32(uint32_t* out) { return ReadRaw(out, sizeof(*out)); }
  Status ReadU64(uint64_t* out) { return ReadRaw(out, sizeof(*out)); }
  Status ReadI64(int64_t* out) { return ReadRaw(out, sizeof(*out)); }
  Status ReadFloat(float* out) { return ReadRaw(out, sizeof(*out)); }
  Status ReadDouble(double* out) { return ReadRaw(out, sizeof(*out)); }

  Status ReadRaw(void* out, size_t size) {
    KG_RETURN_NOT_OK(Require(size));
    std::memcpy(out, data_.data() + pos_, size);
    pos_ += size;
    return Status::OK();
  }

  /// Mirrors WriteString. The length is validated against the remaining
  /// bytes before any allocation, so corrupt lengths cannot OOM.
  Status ReadString(std::string* out) {
    std::string_view view;
    KG_RETURN_NOT_OK(ReadStringView(&view));
    out->assign(view.data(), view.size());
    return Status::OK();
  }

  /// Zero-copy variant of ReadString; the view borrows the reader's bytes.
  Status ReadStringView(std::string_view* out) {
    uint64_t size = 0;
    KG_RETURN_NOT_OK(ReadU64(&size));
    KG_RETURN_NOT_OK(Require(size));
    *out = data_.substr(pos_, size);
    pos_ += size;
    return Status::OK();
  }

  /// Mirrors WriteVector: validates count * sizeof(T) against the remaining
  /// bytes, then bulk-copies into a resized vector.
  template <typename T>
  Status ReadVector(std::vector<T>* out) {
    // Padding-free element bytes; floating-point types are exempt from the
    // unique-representation trait (it is false for them by definition) but
    // their raw IEEE-754 bits copy exactly.
    static_assert(std::is_trivially_copyable_v<T> &&
                  (std::is_floating_point_v<T> ||
                   std::has_unique_object_representations_v<T>));
    uint64_t count = 0;
    KG_RETURN_NOT_OK(ReadU64(&count));
    if (count > remaining() / sizeof(T)) {
      return Status::ParseError(StrCat_("vector of ", count,
                                        " elements exceeds remaining bytes"));
    }
    out->resize(count);
    if (count != 0) {
      std::memcpy(out->data(), data_.data() + pos_, count * sizeof(T));
      pos_ += count * sizeof(T);
    }
    return Status::OK();
  }

  size_t position() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  static std::string StrCat_(const char* a, uint64_t n, const char* b) {
    return std::string(a) + std::to_string(n) + b;
  }

  Status Require(uint64_t size) {
    if (size > remaining()) {
      return Status::ParseError(StrCat_("unexpected end of input: need ",
                                        size, " more bytes"));
    }
    return Status::OK();
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace kgsearch

#endif  // KGSEARCH_UTIL_BINARY_IO_H_
