// The negotiated binary codec over the real TCP transport: upgrade,
// fallback, bit-exact delivery, and the restart-retry regression the
// replay cache closes.

#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "live_test_util.h"
#include "wsq/client/tcp_ws_client.h"
#include "wsq/codec/codec.h"
#include "wsq/control/fixed_controller.h"
#include "wsq/fault/resilience_policy.h"
#include "wsq/net/frame.h"
#include "wsq/net/socket.h"
#include "wsq/obs/metrics.h"

namespace wsq {
namespace {

net::WsqServerOptions BinaryServerOptions(bool compress = false) {
  net::WsqServerOptions options = LiveServerHarness::QuickOptions();
  options.codec = codec::CodecChoice{codec::CodecKind::kBinary, compress};
  return options;
}

LiveSetup BinaryClientSetup(const LiveServerHarness& harness) {
  LiveSetup setup = harness.MakeSetup();
  setup.client_options.codec =
      codec::CodecChoice{codec::CodecKind::kBinary, false};
  return setup;
}

TEST(LiveCodecTest, NegotiatedBinaryDeliversTheTableBitExactly) {
  // Under the binary codec the live path sheds SOAP's 2-decimal text
  // truncation: fetched rows equal the server's in-memory table, raw
  // double bits included — not the serializer round-trip WireRows()
  // models for SOAP runs.
  LiveServerHarness harness(BinaryServerOptions());
  ASSERT_TRUE(harness.start_status().ok());

  LiveBackend live(BinaryClientSetup(harness));
  FixedController controller(300);
  std::vector<Tuple> rows;
  Result<RunTrace> trace =
      live.RunQueryKeepingTuples(&controller, RunSpec{}, &rows);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_TRUE(trace.value().CheckConsistent().ok());

  ASSERT_EQ(rows.size(), harness.customer().num_rows());
  EXPECT_EQ(rows, harness.customer().rows());

  // And the SOAP wire model would NOT have matched: the table has
  // full-precision balances that 2-decimal text must mangle.
  EXPECT_NE(rows, harness.WireRows());
}

TEST(LiveCodecTest, CompressedBinaryMatchesPlainOverTcp) {
  LiveServerHarness harness(BinaryServerOptions(/*compress=*/true));
  ASSERT_TRUE(harness.start_status().ok());

  LiveBackend live(BinaryClientSetup(harness));
  FixedController controller(400);
  std::vector<Tuple> rows;
  Result<RunTrace> trace =
      live.RunQueryKeepingTuples(&controller, RunSpec{}, &rows);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(rows, harness.customer().rows());
}

TEST(LiveCodecTest, ClientFallsBackWhenServerOnlySpeaksSoap) {
  // Default server options: negotiation answers "soap" to everyone. A
  // client advertising binary must settle for SOAP and still drain the
  // query — delivering the SOAP-precision rows, proving the downgraded
  // codec really carried the blocks.
  LiveServerHarness harness;  // QuickOptions: codec defaults to soap
  ASSERT_TRUE(harness.start_status().ok());

  LiveBackend live(BinaryClientSetup(harness));
  FixedController controller(300);
  std::vector<Tuple> rows;
  Result<RunTrace> trace =
      live.RunQueryKeepingTuples(&controller, RunSpec{}, &rows);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();

  const std::vector<Tuple> expected = harness.WireRows();
  ASSERT_EQ(rows.size(), expected.size());
  EXPECT_EQ(rows, expected);
}

TEST(LiveCodecTest, SoapClientUnaffectedByABinaryCapableServer) {
  // The reverse direction: a legacy client (no handshake at all)
  // against a server willing to speak binary keeps getting plain SOAP.
  LiveServerHarness harness(BinaryServerOptions());
  ASSERT_TRUE(harness.start_status().ok());

  LiveBackend live(harness.MakeSetup());  // client codec defaults to soap
  FixedController controller(300);
  std::vector<Tuple> rows;
  Result<RunTrace> trace =
      live.RunQueryKeepingTuples(&controller, RunSpec{}, &rows);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(rows, harness.WireRows());
}

TcpWsClientOptions BinaryClientOptions(double timeout_ms) {
  TcpWsClientOptions options;
  options.connect_timeout_ms = timeout_ms;
  options.codec = codec::CodecChoice{codec::CodecKind::kBinary, false};
  return options;
}

TEST(LiveCodecTest, AckTimeoutDoesNotLatchTheClientOntoSoap) {
  // Regression: a transient ack timeout during the Hello exchange (a
  // slow server under load) must surface as an ordinary connect failure
  // and leave the handshake armed — not silently downgrade every future
  // connection to SOAP against a binary-capable server.
  Result<net::Socket> listener = net::TcpListen(0);
  ASSERT_TRUE(listener.ok());
  Result<int> port = net::LocalPort(listener.value());
  ASSERT_TRUE(port.ok());

  std::thread peer([&] {
    // Connection 1: swallow the Hello and go mute (but keep the socket
    // open, so the client sees a deadline expiry, not a close).
    Result<net::Socket> c1 = net::Accept(listener.value(), 5000.0);
    ASSERT_TRUE(c1.ok());
    Result<net::Frame> hello1 = net::ReadFrame(c1.value());
    EXPECT_TRUE(hello1.ok());
    // Connection 2: a healthy handshake.
    Result<net::Socket> c2 = net::Accept(listener.value(), 5000.0);
    ASSERT_TRUE(c2.ok());
    Result<net::Frame> hello2 = net::ReadFrame(c2.value());
    ASSERT_TRUE(hello2.ok());
    EXPECT_EQ(hello2.value().type, net::FrameType::kHello);
    net::Frame ack;
    ack.type = net::FrameType::kHelloAck;
    ack.payload = "binary";
    EXPECT_TRUE(WriteFrame(c2.value(), ack).ok());
  });

  TcpWsClient client("127.0.0.1", port.value(), BinaryClientOptions(200.0));
  const Status first = client.Connect();
  EXPECT_FALSE(first.ok());
  EXPECT_EQ(first.code(), StatusCode::kUnavailable);

  const Status second = client.Connect();
  EXPECT_TRUE(second.ok()) << second.ToString();
  EXPECT_EQ(client.wire_codec(), codec::CodecKind::kBinary);
  peer.join();
}

TEST(LiveCodecTest, LegacyCloseDowngradesThenReprobesAfterBackoff) {
  // A peer that closes cleanly on the unknown Hello frame is treated as
  // pre-codec: the client silently reconnects speaking SOAP and stops
  // probing — but only for a bounded number of reconnects, because a
  // server restarting mid-handshake looks exactly the same. The peer
  // here answers "binary" to any Hello it sees, so wire_codec() doubles
  // as the probe detector: it can only flip to kBinary on a connection
  // where the client actually sent a Hello.
  Result<net::Socket> listener = net::TcpListen(0);
  ASSERT_TRUE(listener.ok());
  Result<int> port = net::LocalPort(listener.value());
  ASSERT_TRUE(port.ok());

  std::thread peer([&] {
    // Connection 1: read the Hello, then slam the door (legacy peer).
    Result<net::Socket> c1 = net::Accept(listener.value(), 5000.0);
    ASSERT_TRUE(c1.ok());
    EXPECT_TRUE(net::ReadFrame(c1.value()).ok());
    c1.value().Close();
    // Connections 2-4: the silent SOAP reconnect plus two suppressed
    // reconnects. No Hello may arrive — the read must fail with the
    // client's clean close, never yield a frame.
    for (int i = 0; i < 3; ++i) {
      Result<net::Socket> c = net::Accept(listener.value(), 5000.0);
      ASSERT_TRUE(c.ok());
      Result<net::Frame> frame = net::ReadFrame(c.value());
      EXPECT_FALSE(frame.ok()) << "unexpected frame on suppressed conn " << i;
    }
    // Connection 5: the re-probe. Answer it.
    Result<net::Socket> c5 = net::Accept(listener.value(), 5000.0);
    ASSERT_TRUE(c5.ok());
    Result<net::Frame> hello = net::ReadFrame(c5.value());
    ASSERT_TRUE(hello.ok());
    EXPECT_EQ(hello.value().type, net::FrameType::kHello);
    net::Frame ack;
    ack.type = net::FrameType::kHelloAck;
    ack.payload = "binary";
    EXPECT_TRUE(WriteFrame(c5.value(), ack).ok());
  });

  TcpWsClient client("127.0.0.1", port.value(), BinaryClientOptions(2000.0));
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_EQ(client.wire_codec(), codec::CodecKind::kSoap);  // downgraded

  // Two dropped connections inside the suppression window stay on SOAP
  // without a probe (the backoff is 3 reconnects)...
  for (int i = 0; i < 2; ++i) {
    client.Disconnect();
    ASSERT_TRUE(client.Connect().ok());
    EXPECT_EQ(client.wire_codec(), codec::CodecKind::kSoap);
  }
  // ...and the third reconnect re-offers the Hello and restores binary.
  client.Disconnect();
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_EQ(client.wire_codec(), codec::CodecKind::kBinary);
  peer.join();
}

TEST(LiveCodecTest, AckTornAfterItsHeaderIsNotALegacySignal) {
  // A HelloAck cut right after its 20-byte header is a torn message, not
  // a peer that closed before answering: the connect fails retryably and
  // the client does not downgrade to SOAP.
  Result<net::Socket> listener = net::TcpListen(0);
  ASSERT_TRUE(listener.ok());
  Result<int> port = net::LocalPort(listener.value());
  ASSERT_TRUE(port.ok());

  std::thread peer([&] {
    Result<net::Socket> c = net::Accept(listener.value(), 5000.0);
    ASSERT_TRUE(c.ok());
    EXPECT_TRUE(net::ReadFrame(c.value()).ok());
    net::Frame ack;
    ack.type = net::FrameType::kHelloAck;
    ack.payload = "binary";
    char header[net::kFrameHeaderBytes];
    net::EncodeFrameHeader(ack, header);
    EXPECT_TRUE(net::WriteAll(c.value(), header, sizeof(header)).ok());
    c.value().Close();
  });

  Counter* downgrades =
      MetricsRegistry::Global().GetCounter("wsq.net.codec_downgrades");
  const int64_t downgrades_before = downgrades->value();
  TcpWsClient client("127.0.0.1", port.value(), BinaryClientOptions(2000.0));
  const Status status = client.Connect();
  peer.join();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(status.message(), "connection closed mid-message");
  EXPECT_FALSE(net::IsCleanClose(status));
  EXPECT_EQ(downgrades->value(), downgrades_before);
}

TEST(LiveCodecTest, BinaryRestartRetryDeliversEveryTupleExactlyOnce) {
  // The sequenced-binary twin of LiveRetryTest's restart test. Under
  // SOAP a kill between dispatch and response write can cost one block
  // (the at-most-once residual). Binary requests carry a sequence
  // number, the server's replay cache makes the retried fetch
  // idempotent, and the reconnect handshake restores the codec — so the
  // restarted query must deliver *exactly* the full table, not "within
  // one block of it".
  net::WsqServerOptions options;  // service-time sim ON: paces the run
  options.codec = codec::CodecChoice{codec::CodecKind::kBinary, false};
  LiveServerHarness harness(options);
  ASSERT_TRUE(harness.start_status().ok());

  LiveBackend live(BinaryClientSetup(harness));
  FixedController controller(50);
  ResilienceConfig chaos = ResilienceConfig::Chaos();
  RunSpec spec;
  spec.resilience = &chaos;

  std::vector<Tuple> rows;
  Result<RunTrace> trace = Status::Internal("not run");
  std::thread runner(
      [&] { trace = live.RunQueryKeepingTuples(&controller, spec, &rows); });

  const auto gate_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (harness.server().exchanges_served() < 5 &&
         std::chrono::steady_clock::now() < gate_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(harness.server().exchanges_served(), 5);
  harness.server().Stop();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(harness.server().Start().ok());
  runner.join();

  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_TRUE(trace.value().CheckConsistent().ok())
      << trace.value().CheckConsistent().ToString();
  EXPECT_GE(trace.value().total_retries, 1);

  // Exact delivery: every tuple, once, in order, bit-exact.
  EXPECT_EQ(trace.value().total_tuples,
            static_cast<int64_t>(harness.customer().num_rows()));
  EXPECT_EQ(rows, harness.customer().rows());
}

}  // namespace
}  // namespace wsq
