#ifndef WSQ_NET_FRAME_H_
#define WSQ_NET_FRAME_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "wsq/common/status.h"
#include "wsq/obs/span_context.h"

namespace wsq::net {

/// Abstract byte stream the framing layer reads/writes — a connected TCP
/// socket in production, an in-memory buffer (possibly throttled to
/// 1-byte reads/writes) in tests. Implementations may transfer fewer
/// bytes than asked; the framing layer loops.
class ByteStream {
 public:
  virtual ~ByteStream() = default;

  /// Reads up to `len` bytes into `buf`. Returns the count actually read
  /// (>= 1), or 0 on clean end-of-stream (peer closed). Errors (socket
  /// failure, deadline expiry) come back as non-ok.
  virtual Result<size_t> ReadSome(void* buf, size_t len) = 0;

  /// Writes up to `len` bytes from `buf`; returns the count actually
  /// written (>= 1). Short writes are normal (full socket buffers).
  virtual Result<size_t> WriteSome(const void* buf, size_t len) = 0;
};

/// Loops ReadSome until exactly `len` bytes have arrived. A clean EOF
/// after 0 bytes — or mid-message — is kUnavailable ("connection
/// closed"): on the live path a torn-down connection is a transient,
/// retryable condition.
Status ReadExact(ByteStream& stream, void* buf, size_t len);

/// Loops WriteSome until all `len` bytes are out.
Status WriteAll(ByteStream& stream, const void* buf, size_t len);

/// True when `status` is the clean-close signal ReadExact/ReadFrame emit
/// for a peer that shut the connection before sending a single byte of
/// the next message. This is the one read failure that reflects a
/// deliberate peer action (e.g. a pre-codec server dropping an unknown
/// Hello frame) rather than an ambient one (deadline expiry, reset
/// mid-frame), so callers may dispatch on it — centralized here, next to
/// the producer, instead of string-matching at call sites.
bool IsCleanClose(const Status& status);

/// Frame type tag. Every exchange on a wsq connection is one request
/// frame answered by one response frame, strictly in order. A client
/// may open the connection with one optional Hello/HelloAck exchange to
/// negotiate the block codec; a client that skips it (every pre-codec
/// peer) simply speaks SOAP, as always. Types are numbered contiguously:
/// DecodeFrameHeader accepts exactly kRequest..kGoaway, so a new type
/// goes at the end.
enum class FrameType : uint8_t {
  kRequest = 1,
  kResponse = 2,
  /// Codec negotiation: payload is a comma-separated, preference-ordered
  /// list of codec names the client can speak (e.g. "binary,soap").
  kHello = 3,
  /// Server's answer: payload is the single codec name it picked,
  /// optionally suffixed with negotiated feature tokens ("+trace").
  kHelloAck = 4,
  /// Telemetry-plane control frame: asks the server for its live stats
  /// snapshot. Empty payload; answered with one kStatsAck whose payload
  /// is the stats JSON document. Never sent by legacy peers (the type
  /// did not exist), so accepting it costs them nothing.
  kStats = 5,
  kStatsAck = 6,
  /// Liveness probe (empty payload): either side may send one; the peer
  /// answers with kPong. Only sent on connections whose handshake
  /// negotiated the "live" feature — a legacy peer would reject the
  /// unknown type as a protocol error and poison the connection.
  kPing = 7,
  kPong = 8,
  /// Graceful-shutdown notice (empty payload): a draining server tells
  /// an idle client the connection is going away; the client treats it
  /// as a retryable close and reconnects elsewhere/later. "live"-gated
  /// like kPing.
  kGoaway = 9,
};

/// Response flag: the payload is a SOAP fault envelope (the service
/// answered, but with an error — maps to kRemoteFault client-side, never
/// retried).
inline constexpr uint8_t kFrameFlagSoapFault = 0x01;
/// Response flag: the exchange was failed by server-side fault injection
/// (wsqd --fault-plan). Maps to kUnavailable client-side — retryable,
/// exactly like a connection that dropped. The server's cursor did NOT
/// advance.
inline constexpr uint8_t kFrameFlagTransientFault = 0x02;
/// The frame carries a 24-byte trace-context extension (obs/span_context
/// TraceContext) between the fixed header and the payload. Only set on
/// connections whose handshake negotiated the "trace" feature — legacy
/// peers and un-negotiated connections never see the flag, keeping
/// their frames byte-identical to the pre-extension wire.
inline constexpr uint8_t kFrameFlagTraceContext = 0x04;
/// The frame additionally carries a span-block extension (u32 length +
/// EncodeRemoteSpans bytes) after the trace context: the server-side
/// spans of this exchange, piggybacked on the response. Requires
/// kFrameFlagTraceContext; a frame with spans but no context is
/// structurally invalid.
inline constexpr uint8_t kFrameFlagServerSpans = 0x08;
/// The frame is followed by a 4-byte CRC-32C trailer covering every
/// preceding byte of the frame as transmitted (header, extensions,
/// payload). Only set on connections whose handshake negotiated the
/// "crc" feature — the crc-off wire stays byte-identical to the
/// pre-checksum protocol. The flag is self-describing: a receiver
/// verifies any frame that carries it, negotiated or not.
inline constexpr uint8_t kFrameFlagCrc = 0x10;

/// "WSQ1" — the protocol magic leading every frame. A peer that opens
/// with anything else is not speaking this protocol; reject, don't
/// guess.
inline constexpr uint32_t kFrameMagic = 0x57535131;

/// Fixed header size: magic(4) type(1) flags(2:1 reserved) payload
/// length(4) service time(8).
inline constexpr size_t kFrameHeaderBytes = 20;

/// Size of the CRC-32C trailer announced by kFrameFlagCrc.
inline constexpr size_t kFrameCrcBytes = 4;

/// Oversized-frame guard: a header announcing a payload beyond this is
/// rejected before any allocation — one malformed (or hostile) length
/// field must not make the peer try to buffer gigabytes.
inline constexpr uint32_t kMaxFramePayloadBytes = 64u * 1024u * 1024u;

/// One framed message: a SOAP envelope plus transport metadata. The
/// server stamps `service_micros` on responses (wall time from request
/// fully read to response write), so the client can decompose its
/// measured call time into wire vs server residence — the live analogue
/// of the simulated CallResult.wire_ms/service_ms split.
struct Frame {
  FrameType type = FrameType::kRequest;
  uint8_t flags = 0;
  uint64_t service_micros = 0;
  std::string payload;
  /// Trace-context extension (kFrameFlagTraceContext). WriteFrame sets
  /// the flag from `has_trace`; ReadFrame sets `has_trace` from the
  /// received flags.
  bool has_trace = false;
  TraceContext trace;
  /// Span-block extension (kFrameFlagServerSpans): raw EncodeRemoteSpans
  /// bytes, empty = no extension. Responses only by convention.
  std::string span_block;
  /// CRC trailer (kFrameFlagCrc). WriteFrame/AppendFrameBytes emit the
  /// trailer when `has_crc` is set; readers set `has_crc` from the
  /// received flags after verifying the checksum.
  bool has_crc = false;
};

/// True when `status` is the checksum-mismatch signal the framing layer
/// emits for a frame whose CRC trailer did not match its bytes. Carried
/// as kUnavailable: corruption on the wire is an ambient transient —
/// the retry path treats it exactly like a dropped connection, never
/// like a protocol bug. Centralized next to the producer so callers and
/// tests never string-match.
bool IsChecksumMismatch(const Status& status);

/// Serializes the fixed header for `frame` into `out` (network byte
/// order throughout). Flags for the trace/span extensions are derived
/// from the frame's `has_trace` / `span_block` fields, never taken from
/// `flags` — a frame without the data cannot announce the extension.
void EncodeFrameHeader(const Frame& frame, char out[kFrameHeaderBytes]);

/// Parsed header fields, pre-payload.
struct FrameHeader {
  FrameType type = FrameType::kRequest;
  uint8_t flags = 0;
  uint32_t payload_len = 0;
  uint64_t service_micros = 0;
};

/// Validates and decodes a fixed header: wrong magic, unknown type, or a
/// payload length beyond kMaxFramePayloadBytes are kInvalidArgument —
/// the connection is unsalvageable after any of them (framing is lost).
Result<FrameHeader> DecodeFrameHeader(const char in[kFrameHeaderBytes]);

/// Reads one complete frame: the blocking driver of FrameParser. Each
/// ReadSome call asks for exactly the bytes the parser's current phase
/// still needs, so the header, extension and CRC rules are the parser's
/// and the read never reaches past the end of the returned frame (a
/// kPing or kGoaway queued behind a response stays in the socket).
/// kUnavailable when the peer closed the connection (cleanly between
/// frames or mid-frame); kInvalidArgument on garbage, oversized headers,
/// a span block past kMaxRemoteSpanBytes, or a span flag without a trace
/// flag.
Result<Frame> ReadFrame(ByteStream& stream);

/// Writes one complete frame: AppendFrameBytes into a local buffer, then
/// a single WriteAll. Refuses payloads beyond kMaxFramePayloadBytes
/// (kInvalidArgument) — the guard is enforced symmetrically so a
/// well-behaved peer can never emit a frame the other side must reject.
/// Counted in wsq.net.frames_written only once every byte is out.
Status WriteFrame(ByteStream& stream, const Frame& frame);

/// Serializes one complete frame (header, negotiated extensions,
/// payload, CRC trailer) and appends the bytes to `out` — the only frame
/// encoder; the readiness-based path queues its output straight into a
/// per-connection write buffer with it. Refuses oversized payloads and
/// span blocks; on error `out` is untouched.
Status AppendFrameBytes(const Frame& frame, std::string* out);

/// The frame decoder: a header → trace-context → span-block → payload
/// → CRC-trailer state machine. The phase the parser is in *is* the
/// connection's read state, so a single event-loop thread can
/// interleave thousands of connections each mid-frame.
///
/// Two drivers feed it. Consume takes whatever bytes recv() produced;
/// ReadFrame fills the current phase straight from a blocking stream
/// through dest()/need()/Advance(). Payload bytes are copied into
/// Frame::payload exactly once on both paths. Any protocol error poisons
/// the parser — framing is unrecoverable after garbage, so every later
/// call returns the same error and the connection must be dropped.
class FrameParser {
 public:
  /// Consumes `len` bytes, appending each completed frame to `out` (one
  /// read batch can complete several pipelined frames). Frames are
  /// counted in wsq.net.frames_read.
  Status Consume(const char* data, size_t len, std::vector<Frame>* out);

  /// Where the next need() bytes of the current phase go. need() never
  /// reaches past the phase, hence never past the frame.
  char* dest();
  size_t need() const { return need_ - filled_; }

  /// Accounts `n` <= need() bytes just written at dest(), finishing the
  /// phase once it is full. True when that completed a frame, which
  /// Take() then hands out.
  Result<bool> Advance(size_t n);

  /// Hands out the frame Advance just completed and starts the next.
  Frame Take();

  /// Bytes buffered toward the phase in progress (0 between frames).
  size_t buffered_bytes() const { return filled_; }

  /// True once a protocol error poisoned the parser.
  bool failed() const { return !error_.ok(); }

 private:
  enum class Phase : uint8_t {
    kHeader,
    kTraceContext,
    kSpanLength,
    kSpanBlock,
    kPayload,
    kCrcTrailer,
  };

  /// Interprets the completed phase and enters the next one the flags
  /// announce; sets complete_ after the last.
  Status Step();

  void EnterPhase(Phase phase, size_t need);

  /// The string the current phase lands in (span block, payload), or
  /// nullptr for the fixed-size phases, which land in fixed_.
  std::string* Blob();

  void BeginFrame();

  Phase phase_ = Phase::kHeader;
  size_t need_ = kFrameHeaderBytes;
  size_t filled_ = 0;
  char fixed_[std::max(kFrameHeaderBytes, kTraceContextBytes)] = {};
  Frame frame_;
  bool complete_ = false;
  uint8_t flags_ = 0;
  uint32_t payload_len_ = 0;
  /// Running CRC-32C over every wire byte of the frame in progress
  /// (accumulated per phase; compared against the trailer at the end).
  uint32_t crc_ = 0;
  Status error_ = Status::Ok();
};

}  // namespace wsq::net

#endif  // WSQ_NET_FRAME_H_
