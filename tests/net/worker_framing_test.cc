// Dispatch workers frame (and checksum) their own responses; the event
// loop only moves the bytes. The wire must not notice: response frames
// are byte-identical to the frame the loop used to build from the same
// fields, with CRC and tracing on or off; a ping answered while a block
// is in flight keeps the stream in order; and the server-side chaos
// fault burst still arrives as a transient fault frame.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "live_test_util.h"
#include "wsq/codec/binary_codec.h"
#include "wsq/net/frame.h"
#include "wsq/net/socket.h"
#include "wsq/relation/query.h"
#include "wsq/soap/envelope.h"
#include "wsq/soap/message.h"

namespace wsq::net {
namespace {

/// Passes reads and writes through, keeping a copy of every byte read.
class RecordingStream : public ByteStream {
 public:
  explicit RecordingStream(ByteStream* inner) : inner_(inner) {}

  Result<size_t> ReadSome(void* buf, size_t len) override {
    Result<size_t> n = inner_->ReadSome(buf, len);
    if (n.ok()) bytes.append(static_cast<const char*>(buf), n.value());
    return n;
  }
  Result<size_t> WriteSome(const void* buf, size_t len) override {
    return inner_->WriteSome(buf, len);
  }

  std::string bytes;

 private:
  ByteStream* inner_;
};

/// A raw-frame client: negotiates, opens a customer session and issues
/// binary block requests, framing everything by hand.
class RawClient {
 public:
  RawClient(int port, bool crc, bool trace, bool live)
      : crc_(crc), trace_(trace) {
    socket_ = TcpConnect("127.0.0.1", port, 2000.0).value();
    socket_.set_io_timeout_ms(5000.0);
    Frame hello;
    hello.type = FrameType::kHello;
    hello.payload = "binary,soap";
    if (trace) hello.payload += ",trace";
    if (crc) hello.payload += ",crc";
    if (live) hello.payload += ",live";
    EXPECT_TRUE(WriteFrame(socket_, hello).ok());
    Result<Frame> ack = ReadFrame(socket_);
    EXPECT_TRUE(ack.ok());
    EXPECT_EQ(ack.value().has_crc, crc);

    OpenSessionRequest open;
    open.table = "customer";
    Result<Frame> opened = Exchange(EncodeOpenSession(open));
    EXPECT_TRUE(opened.ok());
    session_id_ = DecodeOpenSessionResponse(
                      ParseEnvelope(opened.value().payload).value())
                      .value()
                      .session_id;
  }

  int64_t session_id() const { return session_id_; }
  Socket& socket() { return socket_; }

  Frame RequestFrame(const std::string& payload) const {
    Frame request;
    request.type = FrameType::kRequest;
    request.payload = payload;
    request.has_crc = crc_;
    if (trace_) {
      request.has_trace = true;
      request.trace.trace_id = 0xABCDEF;
      request.trace.span_id = 42;
    }
    return request;
  }

  std::string BlockRequest(int64_t block_size, int64_t sequence) const {
    RequestBlockRequest request;
    request.session_id = session_id_;
    request.block_size = block_size;
    request.sequence = sequence;
    return codec::BinaryCodec().EncodeRequestBlock(request).value();
  }

  Result<Frame> Exchange(const std::string& payload) {
    WSQ_RETURN_IF_ERROR(WriteFrame(socket_, RequestFrame(payload)));
    return ReadFrame(socket_);
  }

 private:
  Socket socket_;
  bool crc_;
  bool trace_;
  int64_t session_id_ = -1;
};

/// The bytes the loop framed before workers did: the same response
/// fields through AppendFrameBytes, with the connection's CRC setting.
std::string LoopFramed(const Frame& received, const std::string& payload,
                       bool crc) {
  Frame frame;
  frame.type = FrameType::kResponse;
  frame.flags = received.flags;
  frame.service_micros = received.service_micros;
  frame.payload = payload;
  frame.has_trace = received.has_trace;
  frame.trace = received.trace;
  frame.span_block = received.span_block;
  frame.has_crc = crc;
  std::string out;
  EXPECT_TRUE(AppendFrameBytes(frame, &out).ok());
  return out;
}

WsqServerOptions BinaryOptions() {
  WsqServerOptions options = LiveServerHarness::QuickOptions();
  options.codec = codec::CodecChoice{codec::CodecKind::kBinary, false};
  return options;
}

TEST(WorkerFramingTest, ResponsesAreByteIdenticalToLoopFramedOnes) {
  LiveServerHarness harness(BinaryOptions());
  ASSERT_TRUE(harness.start_status().ok());
  for (bool crc : {false, true}) {
    for (bool trace : {false, true}) {
      SCOPED_TRACE(std::string("crc ") + (crc ? "on" : "off") + ", trace " +
                   (trace ? "on" : "off"));
      RawClient client(harness.port(), crc, trace, /*live=*/false);
      ScanProjectQuery query;
      query.table_name = "customer";
      std::unique_ptr<QueryCursor> cursor =
          QueryCursor::Open(&harness.customer(), query).value();
      std::vector<const Tuple*> rows;
      for (int64_t seq = 0;; ++seq) {
        ASSERT_LT(seq, 100);
        const Frame request =
            client.RequestFrame(client.BlockRequest(400, seq));
        ASSERT_TRUE(WriteFrame(client.socket(), request).ok());
        RecordingStream recorded(&client.socket());
        Result<Frame> response = ReadFrame(recorded);
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        EXPECT_EQ(response.value().has_crc, crc);
        EXPECT_EQ(response.value().has_trace, trace);

        ASSERT_TRUE(cursor->ScanBlock(400, &rows).ok());
        const std::string payload =
            codec::BinaryCodec()
                .EncodeBlockResponseView(
                    client.session_id(), cursor->exhausted(),
                    cursor->output_schema(),
                    codec::RowView{rows, cursor->projection()})
                .value();
        EXPECT_EQ(response.value().payload, payload);
        EXPECT_EQ(recorded.bytes,
                  LoopFramed(response.value(), payload, crc));
        if (rows.empty() || cursor->exhausted()) break;
      }
    }
  }
}

TEST(WorkerFramingTest, PingAnsweredDuringADispatchKeepsStreamOrder) {
  // The first block stalls on its worker, so the ping that follows the
  // request is answered by the loop while the block is in flight.
  WsqServerOptions options = BinaryOptions();
  FaultSpec stall;
  stall.kind = FaultKind::kServerStall;
  stall.first_block = 0;
  stall.last_block = 0;
  stall.stall_ms = 50.0;
  options.fault_plan.specs.push_back(stall);
  LiveServerHarness harness(options);
  ASSERT_TRUE(harness.start_status().ok());

  for (bool crc : {false, true}) {
    SCOPED_TRACE(crc ? "crc on" : "crc off");
    RawClient client(harness.port(), crc, /*trace=*/false, /*live=*/true);
    Frame ping;
    ping.type = FrameType::kPing;
    ping.has_crc = crc;
    ASSERT_TRUE(
        WriteFrame(client.socket(),
                   client.RequestFrame(client.BlockRequest(300, 0)))
            .ok());
    ASSERT_TRUE(WriteFrame(client.socket(), ping).ok());

    Result<Frame> first = ReadFrame(client.socket());
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_EQ(first.value().type, FrameType::kPong);
    Result<Frame> second = ReadFrame(client.socket());
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    EXPECT_EQ(second.value().type, FrameType::kResponse);
    EXPECT_EQ(second.value().flags & kFrameFlagSoapFault, 0);
    Result<codec::DecodedBlock> block =
        codec::BinaryCodec().DecodeBlockResponse(second.value().payload);
    ASSERT_TRUE(block.ok()) << block.status().ToString();
    EXPECT_EQ(block.value().num_tuples, 300);

    // The stream is still in step: the next exchange answers at once.
    Result<Frame> next = client.Exchange(client.BlockRequest(10, 1));
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    EXPECT_EQ(next.value().type, FrameType::kResponse);
  }
}

TEST(WorkerFramingTest, FaultBurstIsStillFramedAsATransientFault) {
  WsqServerOptions options = BinaryOptions();
  FaultSpec burst;
  burst.kind = FaultKind::kSoapFaultBurst;
  burst.first_block = 0;
  burst.last_block = 0;
  options.fault_plan.specs.push_back(burst);
  LiveServerHarness harness(options);
  ASSERT_TRUE(harness.start_status().ok());

  for (bool crc : {false, true}) {
    SCOPED_TRACE(crc ? "crc on" : "crc off");
    RawClient client(harness.port(), crc, /*trace=*/false, /*live=*/false);
    ASSERT_TRUE(
        WriteFrame(client.socket(),
                   client.RequestFrame(client.BlockRequest(50, 0)))
            .ok());
    RecordingStream recorded(&client.socket());
    Result<Frame> fault = ReadFrame(recorded);
    ASSERT_TRUE(fault.ok()) << fault.status().ToString();
    EXPECT_EQ(fault.value().type, FrameType::kResponse);
    EXPECT_EQ(fault.value().flags & (kFrameFlagSoapFault |
                                     kFrameFlagTransientFault),
              kFrameFlagSoapFault | kFrameFlagTransientFault);
    EXPECT_EQ(fault.value().has_crc, crc);
    EXPECT_EQ(ParseEnvelope(fault.value().payload).status().code(),
              StatusCode::kRemoteFault);
    EXPECT_EQ(recorded.bytes,
              LoopFramed(fault.value(), fault.value().payload, crc));

    // The cursor did not move: the retry gets block 0 in full.
    Result<Frame> retry = client.Exchange(client.BlockRequest(50, 0));
    ASSERT_TRUE(retry.ok()) << retry.status().ToString();
    EXPECT_EQ(retry.value().flags, crc ? kFrameFlagCrc : 0);
    EXPECT_EQ(codec::BinaryCodec()
                  .DecodeBlockResponse(retry.value().payload)
                  .value()
                  .num_tuples,
              50);
  }
}

}  // namespace
}  // namespace wsq::net
