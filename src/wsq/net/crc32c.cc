#include "wsq/net/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace wsq::net {

namespace {

/// 8 slice-by-8 tables, built once at first use. Slicing-by-8 processes
/// 8 input bytes per iteration with table lookups only — no hardware
/// CRC instruction dependency, so it runs on every CI target (~1 GB/s).
struct Crc32cTables {
  std::array<std::array<uint32_t, 256>, 8> t;

  Crc32cTables() {
    constexpr uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = t[0][i];
      for (int slice = 1; slice < 8; ++slice) {
        crc = t[0][crc & 0xffu] ^ (crc >> 8);
        t[slice][i] = crc;
      }
    }
  }
};

const Crc32cTables& Tables() {
  static const Crc32cTables tables;
  return tables;
}

using Crc32cFn = uint32_t (*)(uint32_t, const void*, size_t);

#if defined(__x86_64__)
/// The SSE4.2 `crc32` instruction computes exactly this polynomial, 8
/// bytes per instruction (~4x the table path). Compiled for SSE4.2 only
/// here, so the rest of the library keeps the baseline ISA; callers
/// reach it through the CPUID dispatch in Dispatched().
__attribute__((target("sse4.2"))) uint32_t Crc32cExtendSse42(
    uint32_t crc, const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t c = static_cast<uint32_t>(~crc);
  while (len > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    c = _mm_crc32_u8(static_cast<uint32_t>(c), *p++);
    --len;
  }
  while (len >= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c = _mm_crc32_u64(c, word);
    p += 8;
    len -= 8;
  }
  while (len-- > 0) {
    c = _mm_crc32_u8(static_cast<uint32_t>(c), *p++);
  }
  return ~static_cast<uint32_t>(c);
}
#endif

/// The implementation for this CPU, picked once on first use (a
/// function-local static, so a checksum taken during another file's
/// static initialization still sees a resolved pointer).
Crc32cFn Dispatched() {
  static const Crc32cFn fn = []() -> Crc32cFn {
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2")) return Crc32cExtendSse42;
#endif
    return Crc32cExtendPortable;
  }();
  return fn;
}

}  // namespace

uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t len) {
  const auto& t = Tables().t;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  while (len >= 8) {
    // Fold the current crc into the first 4 bytes, then slice all 8.
    const uint32_t lo = crc ^ (static_cast<uint32_t>(p[0]) |
                               (static_cast<uint32_t>(p[1]) << 8) |
                               (static_cast<uint32_t>(p[2]) << 16) |
                               (static_cast<uint32_t>(p[3]) << 24));
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
          t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    p += 8;
    len -= 8;
  }
  while (len-- > 0) {
    crc = t[0][(crc ^ *p++) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

bool Crc32cHardwareAccelerated() {
  return Dispatched() != Crc32cExtendPortable;
}

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t len) {
  return Dispatched()(crc, data, len);
}

}  // namespace wsq::net
