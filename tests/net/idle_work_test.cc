// net::ScopedIdleWork: slices run only while a blocking read on the same
// thread has nothing to read, stop the moment the socket turns
// readable, nest and restore, never re-enter, and stay on their thread.

#include <sys/socket.h>
#include <unistd.h>

#include <thread>

#include <gtest/gtest.h>

#include "wsq/net/socket.h"

namespace wsq::net {
namespace {

/// A connected AF_UNIX stream pair, each end owned by a Socket.
struct SocketPair {
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    reader = Socket(fds[0]);
    writer = Socket(fds[1]);
  }
  void Send(char byte) { EXPECT_EQ(::send(writer.fd(), &byte, 1, 0), 1); }

  Socket reader;
  Socket writer;
};

TEST(ScopedIdleWorkTest, NoSliceRunsWhenDataIsAlreadyQueued) {
  SocketPair pair;
  pair.Send('x');
  int slices = 0;
  ScopedIdleWork idle([&] {
    ++slices;
    return true;
  });
  char byte = 0;
  Result<size_t> n = pair.reader.ReadSome(&byte, 1);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1u);
  EXPECT_EQ(byte, 'x');
  EXPECT_EQ(slices, 0);
}

TEST(ScopedIdleWorkTest, SlicesStopAsSoonAsTheSocketIsReadable) {
  SocketPair pair;
  int slices = 0;
  ScopedIdleWork idle([&] {
    // The third slice makes the data arrive; no fourth may run.
    if (++slices == 3) pair.Send('y');
    return true;
  });
  char byte = 0;
  ASSERT_TRUE(pair.reader.ReadSome(&byte, 1).ok());
  EXPECT_EQ(byte, 'y');
  EXPECT_EQ(slices, 3);
}

TEST(ScopedIdleWorkTest, FinishedWorkIsNotCalledAgain) {
  SocketPair pair;
  pair.reader.set_io_timeout_ms(20.0);
  int slices = 0;
  ScopedIdleWork idle([&] { return ++slices < 2; });
  char byte = 0;
  Result<size_t> n = pair.reader.ReadSome(&byte, 1);
  EXPECT_FALSE(n.ok());  // nothing ever arrives: the deadline fires
  EXPECT_EQ(n.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(slices, 2);
  pair.Send('z');
  ASSERT_TRUE(pair.reader.ReadSome(&byte, 1).ok());
  EXPECT_EQ(slices, 2);
}

TEST(ScopedIdleWorkTest, ScopesNestAndRestore) {
  SocketPair pair;
  int outer_slices = 0;
  int inner_slices = 0;
  char byte = 0;
  ScopedIdleWork outer([&] {
    if (++outer_slices == 1) pair.Send('o');
    return true;
  });
  {
    ScopedIdleWork inner([&] {
      if (++inner_slices == 2) pair.Send('i');
      return true;
    });
    ASSERT_TRUE(pair.reader.ReadSome(&byte, 1).ok());
    EXPECT_EQ(byte, 'i');
    EXPECT_EQ(inner_slices, 2);
    EXPECT_EQ(outer_slices, 0);
  }
  ASSERT_TRUE(pair.reader.ReadSome(&byte, 1).ok());
  EXPECT_EQ(byte, 'o');
  EXPECT_EQ(outer_slices, 1);
  EXPECT_EQ(inner_slices, 2);
}

TEST(ScopedIdleWorkTest, ASliceThatReadsDoesNotReenter) {
  SocketPair pair;
  SocketPair side;
  int slices = 0;
  ScopedIdleWork idle([&] {
    ++slices;
    // A read inside a slice runs no slices of its own, even though
    // nothing is readable at first on `side`.
    std::thread late([&] { side.Send('s'); });
    char inner = 0;
    EXPECT_TRUE(side.reader.ReadSome(&inner, 1).ok());
    late.join();
    pair.Send('p');
    return true;
  });
  char byte = 0;
  ASSERT_TRUE(pair.reader.ReadSome(&byte, 1).ok());
  EXPECT_EQ(byte, 'p');
  EXPECT_EQ(slices, 1);
}

TEST(ScopedIdleWorkTest, OtherThreadsAreUnaffected) {
  SocketPair pair;
  int slices = 0;
  ScopedIdleWork idle([&] {
    ++slices;
    return true;
  });
  std::thread other([&] {
    // No scope on this thread: the read just blocks until data comes.
    char byte = 0;
    Result<size_t> n = pair.reader.ReadSome(&byte, 1);
    EXPECT_TRUE(n.ok());
    EXPECT_EQ(byte, 'q');
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  pair.Send('q');
  other.join();
  EXPECT_EQ(slices, 0);
}

TEST(ScopedIdleWorkTest, WithoutAScopeReadsAreUnchanged) {
  SocketPair pair;
  pair.reader.set_io_timeout_ms(5.0);
  char byte = 0;
  Result<size_t> n = pair.reader.ReadSome(&byte, 1);
  EXPECT_FALSE(n.ok());
  EXPECT_EQ(n.status().code(), StatusCode::kUnavailable);
  pair.Send('w');
  ASSERT_TRUE(pair.reader.ReadSome(&byte, 1).ok());
  EXPECT_EQ(byte, 'w');
}

}  // namespace
}  // namespace wsq::net
