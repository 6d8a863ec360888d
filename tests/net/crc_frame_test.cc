#include "wsq/net/crc32c.h"

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "wsq/net/frame.h"

namespace wsq::net {
namespace {

// ---------------------------------------------------------------------------
// CRC-32C primitive: known-answer vectors (RFC 3720 appendix B.4) and
// the chaining contract WriteFrame depends on.
// ---------------------------------------------------------------------------

TEST(Crc32cTest, KnownAnswerVectors) {
  EXPECT_EQ(Crc32c("", 0), 0u);
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);

  const std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);

  const std::string ones(32, '\xff');
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62A8AB43u);

  std::string ascending(32, '\0');
  for (int i = 0; i < 32; ++i) ascending[i] = static_cast<char>(i);
  EXPECT_EQ(Crc32c(ascending.data(), ascending.size()), 0x46DD794Eu);
}

TEST(Crc32cTest, ExtendOverSplitsEqualsWholeBuffer) {
  // WriteFrame accumulates the checksum piecewise (header, extensions,
  // payload); every split of a buffer must agree with the one-shot sum.
  std::string data;
  for (int i = 0; i < 300; ++i) {
    data.push_back(static_cast<char>((i * 131 + 17) & 0xff));
  }
  const uint32_t whole = Crc32c(data.data(), data.size());
  for (size_t cut = 0; cut <= data.size(); ++cut) {
    uint32_t crc = Crc32cExtend(0, data.data(), cut);
    crc = Crc32cExtend(crc, data.data() + cut, data.size() - cut);
    ASSERT_EQ(crc, whole) << "split at " << cut;
  }
}

TEST(Crc32cTest, EveryBitFlipChangesTheSum) {
  const std::string data = "the frame integrity contract";
  const uint32_t base = Crc32c(data.data(), data.size());
  for (size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = data;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      EXPECT_NE(Crc32c(mutated.data(), mutated.size()), base)
          << "flip at byte " << byte << " bit " << bit;
    }
  }
}

// Crc32cExtend dispatches to the SSE4.2 instruction where the CPU has it;
// the table implementation is the reference it must match exactly.
std::vector<unsigned char> PseudoRandomBytes(size_t n) {
  std::vector<unsigned char> bytes(n);
  uint32_t x = 0x9E3779B9u;
  for (unsigned char& b : bytes) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    b = static_cast<unsigned char>(x >> 24);
  }
  return bytes;
}

TEST(Crc32cTest, DispatchesToHardwareWhenTheCpuHasIt) {
#if defined(__x86_64__)
  EXPECT_EQ(Crc32cHardwareAccelerated(),
            __builtin_cpu_supports("sse4.2") != 0);
#else
  EXPECT_FALSE(Crc32cHardwareAccelerated());
#endif
}

TEST(Crc32cTest, DispatchedEqualsPortableAtEveryLengthAndAlignment) {
  const std::vector<unsigned char> bytes = PseudoRandomBytes(1024 + 8);
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 1024; ++len) {
      const unsigned char* p = bytes.data() + align;
      ASSERT_EQ(Crc32cExtend(0, p, len), Crc32cExtendPortable(0, p, len))
          << "align " << align << " len " << len;
      // A running (non-zero) checksum folds in the same way.
      ASSERT_EQ(Crc32cExtend(0xDEADBEEFu, p, len),
                Crc32cExtendPortable(0xDEADBEEFu, p, len))
          << "align " << align << " len " << len;
    }
  }
}

TEST(Crc32cTest, DispatchedChainsLikePortableOverEverySplit) {
  const std::vector<unsigned char> bytes = PseudoRandomBytes(200);
  const uint32_t whole = Crc32cExtendPortable(0, bytes.data(), bytes.size());
  for (size_t a = 0; a <= bytes.size(); a += 7) {
    for (size_t b = a; b <= bytes.size(); b += 5) {
      uint32_t crc = Crc32cExtend(0, bytes.data(), a);
      crc = Crc32cExtend(crc, bytes.data() + a, b - a);
      crc = Crc32cExtend(crc, bytes.data() + b, bytes.size() - b);
      ASSERT_EQ(crc, whole) << "splits at " << a << ", " << b;
      // Mixed chains: either implementation may continue the other's sum.
      uint32_t mixed = Crc32cExtendPortable(0, bytes.data(), a);
      mixed = Crc32cExtend(mixed, bytes.data() + a, b - a);
      mixed = Crc32cExtendPortable(mixed, bytes.data() + b, bytes.size() - b);
      ASSERT_EQ(mixed, whole) << "splits at " << a << ", " << b;
    }
  }
}

// ---------------------------------------------------------------------------
// Frame-level integrity: the kFrameFlagCrc trailer through WriteFrame,
// AppendFrameBytes, ReadFrame and FrameParser.
// ---------------------------------------------------------------------------

/// Same in-memory ByteStream as frame_test.cc — configurable chunk size
/// to exercise the partial-IO loops.
class MemoryStream : public ByteStream {
 public:
  explicit MemoryStream(size_t max_chunk = std::numeric_limits<size_t>::max())
      : max_chunk_(max_chunk) {}

  Result<size_t> ReadSome(void* buf, size_t len) override {
    if (read_pos_ >= data_.size()) return static_cast<size_t>(0);  // EOF
    const size_t n = std::min({len, max_chunk_, data_.size() - read_pos_});
    std::memcpy(buf, data_.data() + read_pos_, n);
    read_pos_ += n;
    return n;
  }

  Result<size_t> WriteSome(const void* buf, size_t len) override {
    const size_t n = std::min(len, max_chunk_);
    data_.append(static_cast<const char*>(buf), n);
    return n;
  }

  std::string& data() { return data_; }

 private:
  std::string data_;
  size_t read_pos_ = 0;
  size_t max_chunk_;
};

Frame CheckedFrame() {
  Frame frame;
  frame.type = FrameType::kResponse;
  frame.service_micros = 987654321ull;
  frame.payload = std::string("payload\0with\xff" "binary", 19);
  frame.has_crc = true;
  return frame;
}

TEST(FrameCrcTest, CheckedFrameRoundTripsAndReportsTheFlag) {
  MemoryStream stream;
  const Frame sent = CheckedFrame();
  ASSERT_TRUE(WriteFrame(stream, sent).ok());
  ASSERT_EQ(stream.data().size(),
            kFrameHeaderBytes + sent.payload.size() + kFrameCrcBytes);

  Result<Frame> got = ReadFrame(stream);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got.value().has_crc);
  EXPECT_EQ(got.value().payload, sent.payload);
  EXPECT_EQ(got.value().service_micros, sent.service_micros);
}

TEST(FrameCrcTest, CheckedFrameSurvivesOneByteTransfers) {
  MemoryStream stream(/*max_chunk=*/1);
  const Frame sent = CheckedFrame();
  ASSERT_TRUE(WriteFrame(stream, sent).ok());
  Result<Frame> got = ReadFrame(stream);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().payload, sent.payload);
}

TEST(FrameCrcTest, AppendFrameBytesMatchesWriteFrame) {
  MemoryStream stream;
  ASSERT_TRUE(WriteFrame(stream, CheckedFrame()).ok());
  std::string appended;
  ASSERT_TRUE(AppendFrameBytes(CheckedFrame(), &appended).ok());
  EXPECT_EQ(appended, stream.data());
}

TEST(FrameCrcTest, CrcOffWireIsGoldenByteIdentical) {
  // The integrity feature must cost zero wire bytes when off: a frame
  // with has_crc=false serializes to exactly the pre-CRC image — no
  // trailer, no flag bit.
  Frame frame;
  frame.type = FrameType::kResponse;
  frame.service_micros = 0x0102030405060708ull;
  frame.payload = "legacy";
  std::string wire;
  ASSERT_TRUE(AppendFrameBytes(frame, &wire).ok());
  ASSERT_EQ(wire.size(), kFrameHeaderBytes + 6);
  EXPECT_EQ(static_cast<unsigned char>(wire[5]), 0);  // flags byte clean

  // And the flag cannot be smuggled through `flags` without has_crc —
  // the encoder derives extension bits from data, not caller flags.
  Frame claimed;
  claimed.type = FrameType::kResponse;
  claimed.flags = kFrameFlagCrc;
  char raw[kFrameHeaderBytes];
  EncodeFrameHeader(claimed, raw);
  Result<FrameHeader> header = DecodeFrameHeader(raw);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header.value().flags & kFrameFlagCrc, 0);
}

TEST(FrameCrcTest, EveryBitFlipIsDetectedAsChecksumMismatch) {
  // Flip each bit of the checked wire image (excluding flips that break
  // the header's own validation first). Every read must fail — a CRC
  // mismatch where the frame still parses structurally, some
  // kInvalidArgument where the flip hit magic/type/lengths — and a
  // mismatch must carry the retryable checksum status.
  MemoryStream full;
  ASSERT_TRUE(WriteFrame(full, CheckedFrame()).ok());
  const std::string wire = full.data();
  int mismatches = 0;
  for (size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      MemoryStream stream;
      stream.data() = wire;
      stream.data()[byte] =
          static_cast<char>(stream.data()[byte] ^ (1 << bit));
      Result<Frame> got = ReadFrame(stream);
      if (byte == 5 && (1 << bit) == kFrameFlagCrc) {
        // The one undetectable single-bit flip: clearing the CRC flag
        // itself makes the receiver skip verification (the stray
        // trailer then poisons the *next* frame's magic). A downgrade
        // needs this exact bit — anything touching it plus any other
        // bit is caught.
        continue;
      }
      ASSERT_FALSE(got.ok())
          << "flip at byte " << byte << " bit " << bit << " went undetected";
      if (IsChecksumMismatch(got.status())) {
        EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
        ++mismatches;
      }
    }
  }
  // Most flips land in the payload/service-micros/trailer and can only
  // be caught by the checksum.
  EXPECT_GT(mismatches, static_cast<int>(wire.size()) * 4);
}

TEST(FrameCrcTest, ParserAgreesWithReadFrameOnCorruption) {
  // The incremental parser (the server's decoder) must reject a
  // corrupted checked frame with the same retryable status, and frames
  // completed before the corruption still deliver.
  std::string wire;
  ASSERT_TRUE(AppendFrameBytes(CheckedFrame(), &wire).ok());
  std::string corrupted;
  ASSERT_TRUE(AppendFrameBytes(CheckedFrame(), &corrupted).ok());
  corrupted[kFrameHeaderBytes + 2] ^= 0x10;  // payload corruption
  wire += corrupted;

  FrameParser parser;
  std::vector<Frame> frames;
  Status status = parser.Consume(wire.data(), wire.size(), &frames);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(IsChecksumMismatch(status)) << status.ToString();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_TRUE(frames[0].has_crc);
  EXPECT_EQ(frames[0].payload, CheckedFrame().payload);
  EXPECT_TRUE(parser.failed());
}

TEST(FrameCrcTest, ParserHandlesCheckedFramesAtEveryChunking) {
  Frame empty;
  empty.type = FrameType::kPing;
  empty.has_crc = true;
  Frame plain;  // unchecked frame interleaved with checked ones
  plain.type = FrameType::kRequest;
  plain.payload = "no crc here";
  const std::vector<Frame> sent = {CheckedFrame(), plain, empty};
  std::string wire;
  for (const Frame& frame : sent) {
    ASSERT_TRUE(AppendFrameBytes(frame, &wire).ok());
  }
  for (size_t a = 0; a <= wire.size(); a += 3) {
    for (size_t b = a; b <= wire.size(); b += 5) {
      FrameParser parser;
      std::vector<Frame> frames;
      ASSERT_TRUE(parser.Consume(wire.data(), a, &frames).ok());
      ASSERT_TRUE(parser.Consume(wire.data() + a, b - a, &frames).ok());
      ASSERT_TRUE(
          parser.Consume(wire.data() + b, wire.size() - b, &frames).ok());
      ASSERT_EQ(frames.size(), sent.size()) << "cuts at " << a << "," << b;
      EXPECT_TRUE(frames[0].has_crc);
      EXPECT_EQ(frames[0].payload, sent[0].payload);
      EXPECT_FALSE(frames[1].has_crc);
      EXPECT_EQ(frames[1].payload, sent[1].payload);
      EXPECT_TRUE(frames[2].has_crc);
      EXPECT_EQ(frames[2].type, FrameType::kPing);
    }
  }
}

TEST(FrameCrcTest, ControlFramesRoundTrip) {
  // The liveness vocabulary: kPing / kPong / kGoaway, checked and
  // unchecked.
  for (const FrameType type :
       {FrameType::kPing, FrameType::kPong, FrameType::kGoaway}) {
    for (const bool checked : {false, true}) {
      MemoryStream stream;
      Frame frame;
      frame.type = type;
      frame.has_crc = checked;
      ASSERT_TRUE(WriteFrame(stream, frame).ok());
      Result<Frame> got = ReadFrame(stream);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got.value().type, type);
      EXPECT_EQ(got.value().has_crc, checked);
      EXPECT_TRUE(got.value().payload.empty());
    }
  }
}

TEST(FrameCrcTest, CheckedTracedFrameCoversTheExtensionChain) {
  // CRC over the full extension chain: header | trace ctx | span block
  // | payload | trailer — and a flip inside the trace context is caught.
  Frame frame;
  frame.type = FrameType::kResponse;
  frame.payload = "traced";
  frame.has_trace = true;
  frame.trace = {0xAAAA, 0xBBBB, 0xCCCC};
  frame.has_crc = true;

  MemoryStream stream(/*max_chunk=*/1);
  ASSERT_TRUE(WriteFrame(stream, frame).ok());
  Result<Frame> got = ReadFrame(stream);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got.value().has_crc);
  EXPECT_TRUE(got.value().has_trace);
  EXPECT_EQ(got.value().trace, frame.trace);

  MemoryStream corrupt;
  ASSERT_TRUE(WriteFrame(corrupt, frame).ok());
  corrupt.data()[kFrameHeaderBytes + 3] ^= 0x01;  // inside the trace ctx
  Result<Frame> bad = ReadFrame(corrupt);
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(IsChecksumMismatch(bad.status())) << bad.status().ToString();
}

}  // namespace
}  // namespace wsq::net
