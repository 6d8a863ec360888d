#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <algorithm>
#include <fstream>

#include <gtest/gtest.h>

#include "wsq/net/socket.h"

namespace wsq::net {
namespace {

TEST(TcpListenTest, AcceptQueueIsAsDeepAsTheKernelAllows) {
  // A wave of thousands of simultaneous connects must queue, not be
  // dropped: the listener asks for SOMAXCONN and the kernel clamps it
  // to net.core.somaxconn. For a listening socket, TCP_INFO reports the
  // accept-queue limit in tcpi_sacked.
  int somaxconn = SOMAXCONN;
  std::ifstream proc("/proc/sys/net/core/somaxconn");
  int sysctl = 0;
  if (proc >> sysctl) somaxconn = std::min(somaxconn, sysctl);

  Result<Socket> listener = TcpListen(0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  struct tcp_info info {};
  socklen_t len = sizeof(info);
  ASSERT_EQ(::getsockopt(listener.value().fd(), IPPROTO_TCP, TCP_INFO, &info,
                         &len),
            0);
  EXPECT_EQ(static_cast<int>(info.tcpi_sacked), somaxconn);
}

}  // namespace
}  // namespace wsq::net
