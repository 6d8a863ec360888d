// WriteFrame's write-path contract: one WriteSome per frame whatever
// extensions it carries, and frames_written counts only frames that
// actually went out.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "wsq/net/frame.h"
#include "wsq/obs/metrics.h"

namespace wsq::net {
namespace {

/// Accepts every byte of every WriteSome and counts the calls.
class CountingStream : public ByteStream {
 public:
  Result<size_t> ReadSome(void*, size_t) override {
    return static_cast<size_t>(0);
  }
  Result<size_t> WriteSome(const void* buf, size_t len) override {
    ++writes;
    bytes.append(static_cast<const char*>(buf), len);
    return len;
  }
  int writes = 0;
  std::string bytes;
};

/// Refuses every write, as a reset socket does.
class FailingStream : public ByteStream {
 public:
  Result<size_t> ReadSome(void*, size_t) override {
    return static_cast<size_t>(0);
  }
  Result<size_t> WriteSome(const void*, size_t) override {
    return Status::Unavailable("connection reset");
  }
};

Frame WithExtensions(bool crc, bool traced) {
  Frame frame;
  frame.type = FrameType::kResponse;
  frame.payload = "block bytes";
  frame.has_crc = crc;
  if (traced) {
    frame.has_trace = true;
    frame.trace.trace_id = 7;
    frame.trace.span_id = 9;
    RemoteSpan span;
    span.span_id = 10;
    span.parent_span_id = 9;
    span.name = "server.request";
    frame.span_block = EncodeRemoteSpans({span});
  }
  return frame;
}

int64_t FramesWritten() {
  return MetricsRegistry::Global()
      .GetCounter("wsq.net.frames_written")
      ->value();
}

TEST(FrameWriteTest, EveryFrameShapeGoesOutInOneWrite) {
  const std::vector<std::pair<bool, bool>> shapes = {
      {false, false}, {true, false}, {false, true}, {true, true}};
  for (const auto& [crc, traced] : shapes) {
    const Frame frame = WithExtensions(crc, traced);
    CountingStream stream;
    ASSERT_TRUE(WriteFrame(stream, frame).ok());
    EXPECT_EQ(stream.writes, 1) << "crc=" << crc << " traced=" << traced;
    std::string appended;
    ASSERT_TRUE(AppendFrameBytes(frame, &appended).ok());
    EXPECT_EQ(stream.bytes, appended);
  }
}

TEST(FrameWriteTest, FailedWriteIsNotCountedAsWritten) {
  FailingStream stream;
  const int64_t before = FramesWritten();
  const Status status = WriteFrame(stream, WithExtensions(true, true));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(FramesWritten(), before);
}

}  // namespace
}  // namespace wsq::net
