#include "wsq/net/frame.h"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "wsq/net/crc32c.h"
#include "wsq/obs/metrics.h"

namespace wsq::net {

namespace {

/// Process-wide transport counters (the "frame plane" of the live stats
/// surface). Cached handles into the global registry: the framing layer
/// has no context object to hang a private registry on, and in the wsqd
/// process the global registry *is* the server's registry.
Counter& FramesReadCounter() {
  static Counter* counter =
      MetricsRegistry::Global().GetCounter("wsq.net.frames_read");
  return *counter;
}

Counter& FramesWrittenCounter() {
  static Counter* counter =
      MetricsRegistry::Global().GetCounter("wsq.net.frames_written");
  return *counter;
}

Counter& PartialReadsCounter() {
  static Counter* counter =
      MetricsRegistry::Global().GetCounter("wsq.net.partial_reads");
  return *counter;
}

Counter& ShortWritesCounter() {
  static Counter* counter =
      MetricsRegistry::Global().GetCounter("wsq.net.short_writes");
  return *counter;
}

Counter& CrcFailuresCounter() {
  static Counter* counter =
      MetricsRegistry::Global().GetCounter("wsq.net.crc_failures");
  return *counter;
}

void PutU32(char* out, uint32_t v) {
  out[0] = static_cast<char>((v >> 24) & 0xff);
  out[1] = static_cast<char>((v >> 16) & 0xff);
  out[2] = static_cast<char>((v >> 8) & 0xff);
  out[3] = static_cast<char>(v & 0xff);
}

void PutU64(char* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v >> 32));
  PutU32(out + 4, static_cast<uint32_t>(v & 0xffffffffull));
}

uint32_t GetU32(const char* in) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(in);
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

uint64_t GetU64(const char* in) {
  return (static_cast<uint64_t>(GetU32(in)) << 32) |
         static_cast<uint64_t>(GetU32(in + 4));
}

constexpr std::string_view kCleanCloseMessage = "connection closed by peer";

constexpr std::string_view kChecksumMismatchMessage =
    "frame checksum mismatch (corrupted on the wire)";

/// The end-of-stream status of a read that had received `got` bytes of
/// what it asked for.
Status ClosedAfter(size_t got) {
  return Status::Unavailable(got == 0 ? kCleanCloseMessage
                                      : "connection closed mid-message");
}

/// Validates and appends one frame's wire bytes to `out` without
/// counting it — AppendFrameBytes and WriteFrame count at different
/// moments.
Status EncodeFrame(const Frame& frame, std::string* out) {
  if (frame.payload.size() > kMaxFramePayloadBytes) {
    return Status::InvalidArgument(
        "refusing to send a " + std::to_string(frame.payload.size()) +
        "-byte frame payload (limit " +
        std::to_string(kMaxFramePayloadBytes) + ")");
  }
  if (frame.span_block.size() > kMaxRemoteSpanBytes) {
    return Status::InvalidArgument(
        "refusing to send a " + std::to_string(frame.span_block.size()) +
        "-byte span block (limit " + std::to_string(kMaxRemoteSpanBytes) +
        ")");
  }
  const size_t start = out->size();
  out->reserve(start + kFrameHeaderBytes + kTraceContextBytes + 4 +
               frame.span_block.size() + frame.payload.size() +
               kFrameCrcBytes);
  char raw[kFrameHeaderBytes];
  EncodeFrameHeader(frame, raw);
  out->append(raw, sizeof(raw));
  if (frame.has_trace) {
    char ext[kTraceContextBytes];
    EncodeTraceContext(frame.trace, ext);
    out->append(ext, sizeof(ext));
    if (!frame.span_block.empty()) {
      char len_raw[4];
      PutU32(len_raw, static_cast<uint32_t>(frame.span_block.size()));
      out->append(len_raw, sizeof(len_raw));
      out->append(frame.span_block);
    }
  }
  out->append(frame.payload);
  if (frame.has_crc) {
    char trailer[kFrameCrcBytes];
    PutU32(trailer, Crc32c(out->data() + start, out->size() - start));
    out->append(trailer, sizeof(trailer));
  }
  return Status::Ok();
}

}  // namespace

Status ReadExact(ByteStream& stream, void* buf, size_t len) {
  char* out = static_cast<char*>(buf);
  size_t got = 0;
  while (got < len) {
    Result<size_t> n = stream.ReadSome(out + got, len - got);
    if (!n.ok()) return n.status();
    if (n.value() == 0) return ClosedAfter(got);
    if (n.value() < len - got) PartialReadsCounter().Increment();
    got += n.value();
  }
  return Status::Ok();
}

bool IsCleanClose(const Status& status) {
  return status.code() == StatusCode::kUnavailable &&
         status.message() == kCleanCloseMessage;
}

bool IsChecksumMismatch(const Status& status) {
  return status.code() == StatusCode::kUnavailable &&
         status.message() == kChecksumMismatchMessage;
}

Status WriteAll(ByteStream& stream, const void* buf, size_t len) {
  const char* in = static_cast<const char*>(buf);
  size_t put = 0;
  while (put < len) {
    Result<size_t> n = stream.WriteSome(in + put, len - put);
    if (!n.ok()) return n.status();
    if (n.value() == 0) {
      return Status::Unavailable("connection refused further writes");
    }
    if (n.value() < len - put) ShortWritesCounter().Increment();
    put += n.value();
  }
  return Status::Ok();
}

void EncodeFrameHeader(const Frame& frame, char out[kFrameHeaderBytes]) {
  uint8_t flags =
      frame.flags &
      static_cast<uint8_t>(~(kFrameFlagTraceContext | kFrameFlagServerSpans |
                             kFrameFlagCrc));
  if (frame.has_trace) {
    flags |= kFrameFlagTraceContext;
    // Spans never travel without the context that parents them.
    if (!frame.span_block.empty()) flags |= kFrameFlagServerSpans;
  }
  if (frame.has_crc) flags |= kFrameFlagCrc;
  PutU32(out, kFrameMagic);
  out[4] = static_cast<char>(frame.type);
  out[5] = static_cast<char>(flags);
  out[6] = 0;  // reserved
  out[7] = 0;  // reserved
  PutU32(out + 8, static_cast<uint32_t>(frame.payload.size()));
  PutU64(out + 12, frame.service_micros);
}

Result<FrameHeader> DecodeFrameHeader(const char in[kFrameHeaderBytes]) {
  if (GetU32(in) != kFrameMagic) {
    return Status::InvalidArgument("bad frame magic (not a wsq peer?)");
  }
  // Frame types are numbered contiguously, kRequest through kGoaway.
  const uint8_t type = static_cast<uint8_t>(in[4]);
  if (type < static_cast<uint8_t>(FrameType::kRequest) ||
      type > static_cast<uint8_t>(FrameType::kGoaway)) {
    return Status::InvalidArgument("unknown frame type " +
                                   std::to_string(type));
  }
  FrameHeader header;
  header.type = static_cast<FrameType>(type);
  header.flags = static_cast<uint8_t>(in[5]);
  header.payload_len = GetU32(in + 8);
  header.service_micros = GetU64(in + 12);
  if ((header.flags & kFrameFlagServerSpans) != 0 &&
      (header.flags & kFrameFlagTraceContext) == 0) {
    return Status::InvalidArgument(
        "span extension announced without a trace context");
  }
  if (header.payload_len > kMaxFramePayloadBytes) {
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(header.payload_len) +
        " bytes exceeds the " + std::to_string(kMaxFramePayloadBytes) +
        "-byte limit");
  }
  return header;
}

Result<Frame> ReadFrame(ByteStream& stream) {
  FrameParser parser;
  for (;;) {
    const size_t want = parser.need();
    Result<size_t> n = stream.ReadSome(parser.dest(), want);
    if (!n.ok()) return n.status();
    // Like ReadExact per phase: a close before the phase's first byte
    // is reported as a clean close.
    if (n.value() == 0) return ClosedAfter(parser.buffered_bytes());
    if (n.value() < want) PartialReadsCounter().Increment();
    Result<bool> done = parser.Advance(n.value());
    if (!done.ok()) return done.status();
    if (done.value()) return parser.Take();
  }
}

Status WriteFrame(ByteStream& stream, const Frame& frame) {
  std::string wire;
  WSQ_RETURN_IF_ERROR(EncodeFrame(frame, &wire));
  WSQ_RETURN_IF_ERROR(WriteAll(stream, wire.data(), wire.size()));
  FramesWrittenCounter().Increment();
  return Status::Ok();
}

Status AppendFrameBytes(const Frame& frame, std::string* out) {
  WSQ_RETURN_IF_ERROR(EncodeFrame(frame, out));
  FramesWrittenCounter().Increment();
  return Status::Ok();
}

void FrameParser::BeginFrame() {
  EnterPhase(Phase::kHeader, kFrameHeaderBytes);
  frame_ = Frame();
  complete_ = false;
  flags_ = 0;
  payload_len_ = 0;
  crc_ = 0;
}

void FrameParser::EnterPhase(Phase phase, size_t need) {
  phase_ = phase;
  need_ = need;
  filled_ = 0;
  if (std::string* blob = Blob()) blob->reserve(need);
}

std::string* FrameParser::Blob() {
  switch (phase_) {
    case Phase::kSpanBlock:
      return &frame_.span_block;
    case Phase::kPayload:
      return &frame_.payload;
    default:
      return nullptr;
  }
}

char* FrameParser::dest() {
  std::string* blob = Blob();
  if (blob == nullptr) return fixed_ + filled_;
  blob->resize(need_);
  return blob->data() + filled_;
}

Result<bool> FrameParser::Advance(size_t n) {
  if (!error_.ok()) return error_;
  filled_ += n;
  if (filled_ < need_) return false;
  Status status = Step();
  if (!status.ok()) {
    error_ = status;
    return error_;
  }
  return complete_;
}

Frame FrameParser::Take() {
  FramesReadCounter().Increment();
  Frame frame = std::move(frame_);
  BeginFrame();
  return frame;
}

Status FrameParser::Step() {
  // The completed phase's need_ bytes sit in fixed_ or the blob.
  // Transitions follow the wire order: header, trace context, span
  // length, span block, payload, crc trailer — skipping the extensions
  // the flags do not announce.
  const std::string* blob = Blob();
  const char* bytes = blob != nullptr ? blob->data() : fixed_;
  const auto finish_body = [this] {
    if ((flags_ & kFrameFlagCrc) != 0) {
      EnterPhase(Phase::kCrcTrailer, kFrameCrcBytes);
    } else {
      complete_ = true;
    }
  };
  const auto enter_payload = [this, &finish_body] {
    if (payload_len_ > 0) {
      EnterPhase(Phase::kPayload, payload_len_);
    } else {
      finish_body();
    }
  };
  // Every body phase of a checksummed frame feeds the running CRC
  // before being interpreted (the header feeds it below, once the flag
  // is known; the trailer itself is never part of the sum). Unflagged
  // frames skip the accumulation entirely — the crc-off hot path does
  // no extra work.
  if ((flags_ & kFrameFlagCrc) != 0 && phase_ != Phase::kHeader &&
      phase_ != Phase::kCrcTrailer) {
    crc_ = Crc32cExtend(crc_, bytes, need_);
  }
  switch (phase_) {
    case Phase::kHeader: {
      Result<FrameHeader> header = DecodeFrameHeader(bytes);
      if (!header.ok()) return header.status();
      frame_.type = header.value().type;
      frame_.flags = header.value().flags;
      frame_.service_micros = header.value().service_micros;
      flags_ = header.value().flags;
      payload_len_ = header.value().payload_len;
      if ((flags_ & kFrameFlagCrc) != 0) {
        crc_ = Crc32cExtend(0, bytes, kFrameHeaderBytes);
      }
      if ((flags_ & kFrameFlagTraceContext) != 0) {
        EnterPhase(Phase::kTraceContext, kTraceContextBytes);
      } else {
        enter_payload();
      }
      return Status::Ok();
    }
    case Phase::kTraceContext: {
      frame_.has_trace = true;
      frame_.trace = DecodeTraceContext(bytes);
      if ((flags_ & kFrameFlagServerSpans) != 0) {
        EnterPhase(Phase::kSpanLength, 4);
      } else {
        enter_payload();
      }
      return Status::Ok();
    }
    case Phase::kSpanLength: {
      const uint32_t span_len = GetU32(bytes);
      if (span_len > kMaxRemoteSpanBytes) {
        return Status::InvalidArgument(
            "span block of " + std::to_string(span_len) +
            " bytes exceeds the " + std::to_string(kMaxRemoteSpanBytes) +
            "-byte limit");
      }
      if (span_len > 0) {
        EnterPhase(Phase::kSpanBlock, span_len);
      } else {
        enter_payload();
      }
      return Status::Ok();
    }
    case Phase::kSpanBlock:
      enter_payload();
      return Status::Ok();
    case Phase::kPayload:
      finish_body();
      return Status::Ok();
    case Phase::kCrcTrailer: {
      if (GetU32(bytes) != crc_) {
        CrcFailuresCounter().Increment();
        return Status::Unavailable(std::string(kChecksumMismatchMessage));
      }
      frame_.has_crc = true;
      complete_ = true;
      return Status::Ok();
    }
  }
  return Status::Internal("unreachable frame parser phase");
}

Status FrameParser::Consume(const char* data, size_t len,
                            std::vector<Frame>* out) {
  if (!error_.ok()) return error_;
  while (len > 0) {
    const size_t take = std::min(need(), len);
    std::string* blob = Blob();
    if (blob != nullptr && blob->size() == filled_) {
      // Grow the blob by appending: sizing it through dest() first would
      // zero-fill every payload just before the copy overwrites it.
      blob->append(data, take);
    } else {
      std::memcpy(dest(), data, take);
    }
    data += take;
    len -= take;
    Result<bool> done = Advance(take);
    if (!done.ok()) return done.status();
    if (done.value()) out->push_back(Take());
  }
  return Status::Ok();
}

}  // namespace wsq::net
