#ifndef WSQ_NET_CRC32C_H_
#define WSQ_NET_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace wsq::net {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41 reflected to 0x82F63B78) —
/// the checksum used by iSCSI/ext4/gRPC for on-wire integrity, chosen
/// over CRC-32 (zlib) for its better error-detection properties on the
/// burst errors real links produce.
///
/// `Crc32cExtend(crc, data, len)` folds `len` bytes into a running
/// checksum. Pass 0 to start; chaining is associative over
/// concatenation, i.e.
///   Crc32cExtend(Crc32cExtend(0, a, la), b, lb) == Crc32c(a||b)
/// so the framing layer can accumulate across header / extension /
/// payload scatter without staging a contiguous copy. The pre/post
/// conditioning (~0 init, final xor) is handled internally per call.
///
/// On x86-64 CPUs with SSE4.2 this runs the hardware `crc32`
/// instruction; elsewhere it falls back to Crc32cExtendPortable. Both
/// produce identical values.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t len);

/// The portable slice-by-8 table implementation behind Crc32cExtend on
/// CPUs without a CRC-32C instruction. Exposed so tests can hold the
/// hardware path to it.
uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t len);

/// True when Crc32cExtend dispatches to the hardware instruction.
bool Crc32cHardwareAccelerated();

/// One-shot convenience: CRC-32C of a single buffer.
inline uint32_t Crc32c(const void* data, size_t len) {
  return Crc32cExtend(0, data, len);
}

}  // namespace wsq::net

#endif  // WSQ_NET_CRC32C_H_
