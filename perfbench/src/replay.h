// Layer isolation replay: times the layer kernels through their public
// functions at the block sizes and response sizes a traced run recorded,
// so per-row and per-KB costs describe that workload's traffic rather
// than a fixed size.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <vector>

#include "wsq/common/status.h"
#include "wsq/relation/query.h"
#include "wsq/relation/table.h"

namespace perfbench {

struct KernelCosts {
  /// BlockCodec::EncodeBlockResponse / DecodeBlockResponse, per row, and
  /// the encoded bytes per row, for the binary and the SOAP codec.
  double binary_encode_ns_per_row = 0.0;
  double binary_decode_ns_per_row = 0.0;
  double binary_bytes_per_row = 0.0;
  double soap_encode_ns_per_row = 0.0;
  double soap_decode_ns_per_row = 0.0;
  double soap_bytes_per_row = 0.0;
  /// QueryCursor::FetchBlock, per row produced.
  double fetch_ns_per_row = 0.0;
  /// AppendFrameBytes, FrameParser::Consume and Crc32c, per KiB of
  /// payload.
  double frame_encode_ns_per_kb = 0.0;
  double frame_parse_ns_per_kb = 0.0;
  double crc32c_ns_per_kb = 0.0;
};

/// Replays the kernels for about `seconds`. Row kernels run `query` over
/// `table` at block sizes drawn from `block_rows`; frame and CRC kernels
/// run on payloads of sizes drawn from `payload_bytes`. Draws come from
/// `seed`. Both recordings must be non-empty.
wsq::Result<KernelCosts> ReplayKernels(const wsq::Table& table,
                                       const wsq::ScanProjectQuery& query,
                                       const std::vector<double>& block_rows,
                                       const std::vector<double>& payload_bytes,
                                       uint64_t seed, double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
