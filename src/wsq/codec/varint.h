#ifndef WSQ_CODEC_VARINT_H_
#define WSQ_CODEC_VARINT_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

#include "wsq/common/status.h"

namespace wsq::codec {

/// LEB128 unsigned varints and zigzag signed varints — the integer
/// building blocks of the binary block format. Encoders append to a
/// std::string; decoding goes through ByteCursor, which bounds-checks
/// every read (torture inputs are hostile by assumption).

inline void PutUVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

inline void PutVarint(std::string* out, int64_t v) {
  PutUVarint(out, ZigZagEncode(v));
}

/// Bytes PutUVarint emits for `v` (1..10).
inline size_t UVarintSize(uint64_t v) {
  return (static_cast<size_t>(std::bit_width(v | 1)) + 6) / 7;
}

/// PutUVarint into caller-sized storage: writes `v` at `p` and returns
/// the byte past it. The caller guarantees UVarintSize(v) bytes of room.
inline char* WriteUVarint(char* p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

/// Bounds-checked forward reader over a byte span. Every accessor
/// returns a non-ok Result instead of reading past the end, so a
/// truncated or hostile payload can never walk off the buffer.
class ByteCursor {
 public:
  ByteCursor(const char* data, size_t len) : p_(data), end_(data + len) {}
  explicit ByteCursor(std::string_view bytes)
      : ByteCursor(bytes.data(), bytes.size()) {}

  size_t remaining() const { return static_cast<size_t>(end_ - p_); }
  bool exhausted() const { return p_ == end_; }

  Result<uint8_t> ReadByte() {
    if (p_ == end_) return Truncated("byte");
    return static_cast<uint8_t>(*p_++);
  }

  /// Returns a pointer to the next `n` bytes and advances past them.
  Result<const char*> ReadBytes(size_t n) {
    if (remaining() < n) return Truncated("bytes");
    const char* at = p_;
    p_ += n;
    return at;
  }

  Result<uint64_t> ReadUVarint() {
    uint64_t v = 0;
    int shift = 0;
    while (p_ != end_) {
      const uint8_t byte = static_cast<uint8_t>(*p_++);
      if (shift == 63 && (byte & 0x7e) != 0) {
        return Status::InvalidArgument("varint overflows 64 bits");
      }
      v |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return v;
      shift += 7;
      if (shift > 63) {
        return Status::InvalidArgument("varint longer than 10 bytes");
      }
    }
    return Truncated("varint");
  }

  Result<int64_t> ReadVarint() {
    Result<uint64_t> raw = ReadUVarint();
    if (!raw.ok()) return raw.status();
    return ZigZagDecode(raw.value());
  }

 private:
  static Status Truncated(const char* what) {
    return Status::InvalidArgument(std::string("truncated payload reading ") +
                                   what);
  }

  const char* p_;
  const char* end_;
};

}  // namespace wsq::codec

#endif  // WSQ_CODEC_VARINT_H_
