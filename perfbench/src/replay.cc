#include "replay.h"

#include <algorithm>
#include <memory>
#include <string>

#include "stats.h"
#include "wsq/codec/codec.h"
#include "wsq/fleet/fleet_spec.h"
#include "wsq/net/crc32c.h"
#include "wsq/net/frame.h"

namespace perfbench {
namespace {

/// Replayed sizes per kernel pass: enough to cover the recorded
/// distribution, few enough that one pass stays short.
constexpr size_t kDraws = 32;

/// Keeps the replayed checksums observable, so the CRC calls stay live.
volatile uint32_t g_crc_sink = 0;

std::vector<int64_t> Draw(const std::vector<double>& recorded, uint64_t seed) {
  std::vector<int64_t> out;
  for (size_t i = 0; i < kDraws; ++i) {
    const uint64_t pick = wsq::fleet::FleetMix64(seed + i) % recorded.size();
    out.push_back(std::max<int64_t>(1, static_cast<int64_t>(recorded[pick])));
  }
  return out;
}

/// Cursor over `query` that reopens at end-of-table, so a block can be
/// larger than the relation (fleet blocks reach 20,000 rows).
class Rows {
 public:
  Rows(const wsq::Table& table, const wsq::ScanProjectQuery& query)
      : table_(table), query_(query) {}

  /// Fetches `n` rows into `out`; adds FetchBlock time to `*fetch_ns`.
  wsq::Status Fetch(int64_t n, std::vector<wsq::Tuple>* out,
                    int64_t* fetch_ns) {
    out->clear();
    while (static_cast<int64_t>(out->size()) < n) {
      const bool fresh = cursor_ == nullptr || cursor_->exhausted();
      if (fresh) {
        wsq::Result<std::unique_ptr<wsq::QueryCursor>> opened =
            wsq::QueryCursor::Open(&table_, query_);
        if (!opened.ok()) return opened.status();
        cursor_ = std::move(opened).value();
      }
      const int64_t want = n - static_cast<int64_t>(out->size());
      const int64_t start = NowNs();
      wsq::Result<std::vector<wsq::Tuple>> block = cursor_->FetchBlock(want);
      *fetch_ns += NowNs() - start;
      if (!block.ok()) return block.status();
      if (block.value().empty()) {
        if (fresh) return wsq::Status::InvalidArgument("replay: empty table");
        cursor_.reset();
        continue;
      }
      for (wsq::Tuple& row : block.value()) out->push_back(std::move(row));
    }
    return wsq::Status::Ok();
  }

  const wsq::Schema* schema() const {
    return cursor_ == nullptr ? nullptr : &cursor_->output_schema();
  }

 private:
  const wsq::Table& table_;
  const wsq::ScanProjectQuery& query_;
  std::unique_ptr<wsq::QueryCursor> cursor_;
};

struct CodecTally {
  int64_t encode_ns = 0;
  int64_t decode_ns = 0;
  int64_t bytes = 0;
};

wsq::Status RoundTrip(const wsq::codec::BlockCodec& codec,
                      const wsq::Schema& schema,
                      const std::vector<wsq::Tuple>& rows, CodecTally* tally) {
  int64_t start = NowNs();
  wsq::Result<std::string> payload =
      codec.EncodeBlockResponse(/*session_id=*/1, /*end_of_results=*/false,
                                schema, rows);
  tally->encode_ns += NowNs() - start;
  if (!payload.ok()) return payload.status();
  tally->bytes += static_cast<int64_t>(payload.value().size());
  start = NowNs();
  wsq::Result<wsq::codec::DecodedBlock> decoded =
      codec.DecodeBlockResponse(std::move(payload).value());
  tally->decode_ns += NowNs() - start;
  if (!decoded.ok()) return decoded.status();
  if (decoded.value().num_tuples != static_cast<int64_t>(rows.size())) {
    return wsq::Status::Internal("replayed block lost rows");
  }
  return wsq::Status::Ok();
}

}  // namespace

wsq::Result<KernelCosts> ReplayKernels(const wsq::Table& table,
                                       const wsq::ScanProjectQuery& query,
                                       const std::vector<double>& block_rows,
                                       const std::vector<double>& payload_bytes,
                                       uint64_t seed, double seconds) {
  if (block_rows.empty() || payload_bytes.empty()) {
    return wsq::Status::InvalidArgument("replay: nothing was recorded");
  }
  const std::vector<int64_t> sizes = Draw(block_rows, wsq::fleet::FleetMix64(seed ^ 1));
  const std::vector<int64_t> payloads = Draw(payload_bytes, wsq::fleet::FleetMix64(seed ^ 2));
  const std::unique_ptr<wsq::codec::BlockCodec> binary =
      wsq::codec::MakeBlockCodec({wsq::codec::CodecKind::kBinary, false});
  const std::unique_ptr<wsq::codec::BlockCodec> soap =
      wsq::codec::MakeBlockCodec({wsq::codec::CodecKind::kSoap, false});

  // Row kernels: scan, then both codecs, block by block.
  Rows rows(table, query);
  std::vector<wsq::Tuple> block;
  int64_t fetch_ns = 0;
  int64_t replayed_rows = 0;
  CodecTally bin;
  CodecTally xml;
  int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 0.6e9);
  do {
    for (int64_t n : sizes) {
      WSQ_RETURN_IF_ERROR(rows.Fetch(n, &block, &fetch_ns));
      WSQ_RETURN_IF_ERROR(RoundTrip(*binary, *rows.schema(), block, &bin));
      WSQ_RETURN_IF_ERROR(RoundTrip(*soap, *rows.schema(), block, &xml));
      replayed_rows += n;
    }
  } while (NowNs() < deadline);

  // Frame and CRC kernels on payload-sized buffers of seeded bytes.
  const int64_t max_payload = *std::max_element(payloads.begin(), payloads.end());
  std::string bytes(static_cast<size_t>(max_payload), '\0');
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(wsq::fleet::FleetMix64(seed + i) & 0xFF);
  }
  int64_t frame_encode_ns = 0;
  int64_t frame_parse_ns = 0;
  int64_t crc_ns = 0;
  int64_t replayed_bytes = 0;
  uint32_t crc_sink = 0;
  wsq::net::Frame frame;
  frame.type = wsq::net::FrameType::kResponse;
  std::string wire;
  std::vector<wsq::net::Frame> parsed;
  deadline = NowNs() + static_cast<int64_t>(seconds * 0.4e9);
  do {
    for (int64_t n : payloads) {
      frame.payload.assign(bytes.data(), static_cast<size_t>(n));
      wire.clear();
      int64_t start = NowNs();
      WSQ_RETURN_IF_ERROR(wsq::net::AppendFrameBytes(frame, &wire));
      frame_encode_ns += NowNs() - start;

      wsq::net::FrameParser parser;
      parsed.clear();
      start = NowNs();
      WSQ_RETURN_IF_ERROR(parser.Consume(wire.data(), wire.size(), &parsed));
      frame_parse_ns += NowNs() - start;
      if (parsed.size() != 1 || parsed[0].payload.size() != frame.payload.size()) {
        return wsq::Status::Internal("replayed frame did not parse back");
      }

      start = NowNs();
      crc_sink ^= wsq::net::Crc32c(bytes.data(), static_cast<size_t>(n));
      crc_ns += NowNs() - start;
      replayed_bytes += n;
    }
  } while (NowNs() < deadline);

  KernelCosts costs;
  const double per_row = 1.0 / static_cast<double>(replayed_rows);
  costs.fetch_ns_per_row = static_cast<double>(fetch_ns) * per_row;
  costs.binary_encode_ns_per_row = static_cast<double>(bin.encode_ns) * per_row;
  costs.binary_decode_ns_per_row = static_cast<double>(bin.decode_ns) * per_row;
  costs.binary_bytes_per_row = static_cast<double>(bin.bytes) * per_row;
  costs.soap_encode_ns_per_row = static_cast<double>(xml.encode_ns) * per_row;
  costs.soap_decode_ns_per_row = static_cast<double>(xml.decode_ns) * per_row;
  costs.soap_bytes_per_row = static_cast<double>(xml.bytes) * per_row;
  const double per_kb = 1024.0 / static_cast<double>(replayed_bytes);
  costs.frame_encode_ns_per_kb = static_cast<double>(frame_encode_ns) * per_kb;
  costs.frame_parse_ns_per_kb = static_cast<double>(frame_parse_ns) * per_kb;
  costs.crc32c_ns_per_kb = static_cast<double>(crc_ns) * per_kb;
  g_crc_sink = crc_sink;
  return costs;
}

}  // namespace perfbench
