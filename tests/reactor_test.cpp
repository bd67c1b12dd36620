/// Direct tests of the reactor's event loops: a fleet of mostly-idle
/// connections served by far fewer loops than connections, idle expiry
/// through the timer wheel, graceful drain on stop(), exactly-once
/// on_close, least-loaded assignment (a blocked session never stalls a
/// connection on another loop), and the send timeout that cuts a peer
/// which stops reading.

#include "facet/net/reactor.hpp"

#include <gtest/gtest.h>

#ifdef __linux__

#include <atomic>
#include <chrono>
#include <cstring>
#include <poll.h>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "facet/net/socket.hpp"

namespace facet {
namespace {

/// Client half of a socketpair whose server half the reactor owns.
struct ClientFd {
  int fd = -1;
  ~ClientFd()
  {
    if (fd >= 0) {
      ::close(fd);
    }
  }
  ClientFd() = default;
  ClientFd(ClientFd&& other) noexcept : fd{other.fd} { other.fd = -1; }
  ClientFd& operator=(ClientFd&&) = delete;
};

/// Hands the reactor one end of a fresh socketpair, returns the other.
ClientFd add_echo_conn(Reactor& reactor, std::atomic<int>& closes)
{
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ClientFd client;
  client.fd = fds[0];

  class EchoConnection final : public ReactorConnection {
   public:
    explicit EchoConnection(std::atomic<int>* closes) : closes_{closes} {}
    bool on_data(std::string& in, std::string& out) override
    {
      out.append(in);
      in.clear();
      return true;
    }
    void on_close() noexcept override { closes_->fetch_add(1); }

   private:
    std::atomic<int>* closes_;
  };

  reactor.add(Socket{fds[1]}, std::make_unique<EchoConnection>(&closes));
  return client;
}

std::string echo_roundtrip(int fd, const std::string& message)
{
  EXPECT_EQ(::send(fd, message.data(), message.size(), 0),
            static_cast<ssize_t>(message.size()));
  std::string reply;
  char buf[4096];
  while (reply.size() < message.size()) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) {
      break;
    }
    reply.append(buf, static_cast<std::size_t>(n));
  }
  return reply;
}

/// Waits (bounded) for a condition the reactor reaches asynchronously.
template <typename Predicate>
bool eventually(Predicate pred, std::chrono::milliseconds budget = std::chrono::seconds{5})
{
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds{2});
  }
  return true;
}

TEST(ReactorSweep, IdleFleetOnTwoLoopsEchoesEveryConnection)
{
  // 150 connections, 2 loops: the whole point of the reactor — idle
  // connections cost an epoll slot, not a thread.
  ReactorOptions options;
  options.workers = 2;
  Reactor reactor{options};
  reactor.start();
  EXPECT_EQ(reactor.num_loops(), 2u);

  std::atomic<int> closes{0};
  std::vector<ClientFd> clients;
  for (int i = 0; i < 150; ++i) {
    clients.push_back(add_echo_conn(reactor, closes));
  }
  ASSERT_TRUE(eventually([&] { return reactor.active_connections() == 150; }));

  // Every connection answers, including ones registered before/after
  // hundreds of siblings; most of the fleet stays idle throughout.
  for (std::size_t i = 0; i < clients.size(); i += 7) {
    const std::string message = "ping #" + std::to_string(i) + "\n";
    EXPECT_EQ(echo_roundtrip(clients[i].fd, message), message) << "conn " << i;
  }
  // ... and a second round on the same connections.
  for (std::size_t i = 0; i < clients.size(); i += 13) {
    const std::string message = "again #" + std::to_string(i) + "\n";
    EXPECT_EQ(echo_roundtrip(clients[i].fd, message), message) << "conn " << i;
  }

  EXPECT_EQ(closes.load(), 0);
  reactor.stop();
  // stop() drains: every connection sees exactly one on_close.
  EXPECT_EQ(closes.load(), 150);
  EXPECT_EQ(reactor.active_connections(), 0u);
}

TEST(ReactorSweep, ClientEofRetiresTheConnection)
{
  ReactorOptions options;
  options.workers = 1;
  Reactor reactor{options};
  reactor.start();

  std::atomic<int> closes{0};
  {
    ClientFd client = add_echo_conn(reactor, closes);
    ASSERT_TRUE(eventually([&] { return reactor.active_connections() == 1; }));
    EXPECT_EQ(echo_roundtrip(client.fd, "hello\n"), "hello\n");
  }  // client fd closes here
  ASSERT_TRUE(eventually([&] { return closes.load() == 1; }));
  ASSERT_TRUE(eventually([&] { return reactor.active_connections() == 0; }));
  reactor.stop();
  EXPECT_EQ(closes.load(), 1);  // exactly once, not again at stop()
}

TEST(ReactorSweep, IdleTimeoutExpiresSilentConnections)
{
  ReactorOptions options;
  options.workers = 2;
  options.idle_timeout = std::chrono::milliseconds{100};
  Reactor reactor{options};
  reactor.start();

  std::atomic<int> closes{0};
  std::vector<ClientFd> clients;
  for (int i = 0; i < 20; ++i) {
    clients.push_back(add_echo_conn(reactor, closes));
  }
  ASSERT_TRUE(eventually([&] { return reactor.active_connections() == 20; }));

  // Say nothing: the timer wheel must retire all 20 within a few periods.
  ASSERT_TRUE(eventually([&] { return reactor.active_connections() == 0; }));
  EXPECT_EQ(closes.load(), 20);

  // The reactor survives its whole fleet expiring: a fresh connection works.
  ClientFd late = add_echo_conn(reactor, closes);
  ASSERT_TRUE(eventually([&] { return reactor.active_connections() == 1; }));
  EXPECT_EQ(echo_roundtrip(late.fd, "still alive\n"), "still alive\n");
  reactor.stop();
  EXPECT_EQ(closes.load(), 21);
}

TEST(ReactorSweep, ActivityResetsTheIdleClock)
{
  ReactorOptions options;
  options.workers = 1;
  options.idle_timeout = std::chrono::milliseconds{150};
  Reactor reactor{options};
  reactor.start();

  std::atomic<int> closes{0};
  ClientFd client = add_echo_conn(reactor, closes);
  ASSERT_TRUE(eventually([&] { return reactor.active_connections() == 1; }));

  // Keep talking at half the timeout for several periods: the connection
  // must survive far past one idle_timeout of wall time.
  for (int i = 0; i < 6; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds{60});
    ASSERT_EQ(echo_roundtrip(client.fd, "tick\n"), "tick\n") << "round " << i;
  }
  EXPECT_EQ(closes.load(), 0);
  reactor.stop();
  EXPECT_EQ(closes.load(), 1);
}

TEST(ReactorSweep, AddAfterStopClosesTheSessionImmediately)
{
  ReactorOptions options;
  options.workers = 1;
  Reactor reactor{options};
  reactor.start();
  reactor.stop();

  std::atomic<int> closes{0};
  ClientFd client = add_echo_conn(reactor, closes);
  (void)client;
  EXPECT_EQ(closes.load(), 1);
  EXPECT_EQ(reactor.active_connections(), 0u);
}

/// Waits up to `budget` for `fd` to turn readable — a hang guard, not a
/// latency bound.
bool readable_within(int fd, std::chrono::milliseconds budget)
{
  pollfd p{fd, POLLIN, 0};
  return ::poll(&p, 1, static_cast<int>(budget.count())) == 1;
}

TEST(Reactor, BlockedSessionDoesNotStallAConnectionOnAnotherLoop)
{
  // Two loops, two back-to-back adds: least-loaded assignment must put
  // them on different loops, so while A's session is stuck in on_data, B is
  // still served.
  std::atomic<bool> entered{false};
  std::atomic<bool> released{false};
  ReactorOptions options;
  options.workers = 2;
  Reactor reactor{options};
  struct ReleaseOnExit {
    std::atomic<bool>& released;
    ~ReleaseOnExit() { released.store(true); }
  } release_on_exit{released};  // an early ASSERT return must not hang stop()
  reactor.start();

  class LatchedConnection final : public ReactorConnection {
   public:
    LatchedConnection(std::atomic<bool>* entered, std::atomic<bool>* released)
        : entered_{entered}, released_{released}
    {
    }
    bool on_data(std::string& in, std::string& out) override
    {
      entered_->store(true);
      while (!released_->load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds{1});
      }
      out.append(in);
      in.clear();
      return true;
    }
    void on_close() noexcept override {}

   private:
    std::atomic<bool>* entered_;
    std::atomic<bool>* released_;
  };

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ClientFd blocked;
  blocked.fd = fds[0];
  reactor.add(Socket{fds[1]}, std::make_unique<LatchedConnection>(&entered, &released));
  std::atomic<int> closes{0};
  ClientFd echoed = add_echo_conn(reactor, closes);

  ASSERT_EQ(::send(blocked.fd, "a", 1, 0), 1);
  ASSERT_TRUE(eventually([&] { return entered.load(); }));
  const std::string message = "served beside a blocked session\n";
  ASSERT_EQ(::send(echoed.fd, message.data(), message.size(), 0),
            static_cast<ssize_t>(message.size()));
  ASSERT_TRUE(readable_within(echoed.fd, std::chrono::seconds{30}))
      << "B was never answered: it shares A's loop";
  std::string reply(message.size(), '\0');
  EXPECT_EQ(::recv(echoed.fd, reply.data(), reply.size(), MSG_WAITALL),
            static_cast<ssize_t>(message.size()));
  EXPECT_EQ(reply, message);
  released.store(true);
  reactor.stop();
  EXPECT_EQ(closes.load(), 1);
}

TEST(Reactor, PeerThatStopsReadingIsCutWithoutFreezingItsLoop)
{
  // One loop, idle timeout 200 ms. The stalled client streams bytes and
  // never reads its echo, so the loop's reply write fills the socket and
  // blocks. The send timeout (the idle timeout) must fail that write and
  // close the connection; the other client on the same loop is then served.
  ReactorOptions options;
  options.workers = 1;
  options.idle_timeout = std::chrono::milliseconds{200};
  Reactor reactor{options};
  reactor.start();

  std::atomic<int> closes{0};
  ClientFd stalled = add_echo_conn(reactor, closes);
  ClientFd neighbour = add_echo_conn(reactor, closes);
  ASSERT_TRUE(eventually([&] { return reactor.active_connections() == 2; }));
  ASSERT_EQ(echo_roundtrip(neighbour.fd, "warm\n"), "warm\n");

  std::atomic<std::size_t> streamed{0};
  std::thread writer{[&] {
    const std::string chunk(16384, 's');
    for (;;) {
      const ssize_t n = ::send(stalled.fd, chunk.data(), chunk.size(), MSG_NOSIGNAL);
      if (n <= 0) {
        return;  // the reactor closed the stalled connection
      }
      streamed.fetch_add(static_cast<std::size_t>(n));
    }
  }};
  eventually([&] { return streamed.load() >= 256 * 1024; });

  const std::string message = "still served\n";
  ASSERT_EQ(::send(neighbour.fd, message.data(), message.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(message.size()));
  const bool answered = readable_within(neighbour.fd, std::chrono::seconds{30});
  const bool cut = eventually([&] { return closes.load() >= 1; }, std::chrono::seconds{30});
  ::shutdown(stalled.fd, SHUT_RDWR);  // frees the writer if the loop never cut it
  writer.join();
  ASSERT_TRUE(answered) << "the stalled peer froze the loop";
  std::string reply(message.size(), '\0');
  EXPECT_EQ(::recv(neighbour.fd, reply.data(), reply.size(), MSG_WAITALL),
            static_cast<ssize_t>(message.size()));
  EXPECT_EQ(reply, message);
  EXPECT_TRUE(cut) << "the stalled peer was never closed";
  reactor.stop();
  EXPECT_EQ(closes.load(), 2);
}

TEST(Reactor, StopWithoutStartIsANoop)
{
  Reactor reactor{{}};
  reactor.stop();
  reactor.stop();
  EXPECT_EQ(reactor.active_connections(), 0u);
}

}  // namespace
}  // namespace facet

#else  // !__linux__

TEST(Reactor, SkippedWithoutEpoll)
{
  GTEST_SKIP() << "serving needs Linux (epoll)";
}

#endif
