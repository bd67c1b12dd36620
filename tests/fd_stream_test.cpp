/// Direct unit tests for FdStreamBuf, the std::streambuf bridge between
/// std::iostream code and a POSIX fd. The serving path only exercises its
/// happy path; these tests drive the short-read, EINTR and failed-flush corners
/// on purpose: partial reads across tiny pipe writes, reads interrupted by
/// a non-SA_RESTART signal, writes into a closed peer, and bulk transfers
/// that outsize both the stream buffer and the socket send buffer.

#include "facet/net/fd_stream.hpp"

#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)

#include <csignal>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

namespace facet {
namespace {

struct PipePair {
  int read_fd = -1;
  int write_fd = -1;
  PipePair()
  {
    int fds[2];
    EXPECT_EQ(::pipe(fds), 0);
    read_fd = fds[0];
    write_fd = fds[1];
  }
  ~PipePair()
  {
    if (read_fd >= 0) {
      ::close(read_fd);
    }
    if (write_fd >= 0) {
      ::close(write_fd);
    }
  }
};

struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair()
  {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair()
  {
    if (a >= 0) {
      ::close(a);
    }
    if (b >= 0) {
      ::close(b);
    }
  }
};

TEST(FdStream, ReassemblesLinesAcrossPartialReads)
{
  PipePair pipe;
  // Drip one request line through the pipe in 3-byte fragments: every
  // underflow sees a short read, never the full line.
  const std::string message = "lookup e8e8e8e8cafecafe\nsecond line\n";
  std::thread writer{[&] {
    for (std::size_t i = 0; i < message.size(); i += 3) {
      const std::size_t len = std::min<std::size_t>(3, message.size() - i);
      ASSERT_EQ(::write(pipe.write_fd, message.data() + i, len),
                static_cast<ssize_t>(len));
      std::this_thread::sleep_for(std::chrono::milliseconds{1});
    }
    ::close(pipe.write_fd);
    pipe.write_fd = -1;
  }};

  FdStreamBuf buf{pipe.read_fd};
  std::istream in{&buf};
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "lookup e8e8e8e8cafecafe");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "second line");
  EXPECT_FALSE(std::getline(in, line));
  EXPECT_TRUE(in.eof());
  writer.join();
}

TEST(FdStream, TinyBufferForcesUnderflowPerCharacter)
{
  PipePair pipe;
  const std::string message(1000, 'x');
  std::thread writer{[&] {
    ASSERT_EQ(::write(pipe.write_fd, message.data(), message.size()),
              static_cast<ssize_t>(message.size()));
    ::close(pipe.write_fd);
    pipe.write_fd = -1;
  }};

  // buffer_bytes=1: every character is its own read(2).
  FdStreamBuf buf{pipe.read_fd, 1};
  std::istream in{&buf};
  std::string all;
  char c;
  while (in.get(c)) {
    all.push_back(c);
  }
  EXPECT_EQ(all, message);
  writer.join();
}

void sigusr1_noop(int) {}

TEST(FdStream, ReadRetriesAfterEintr)
{
  // A handler installed WITHOUT SA_RESTART makes a blocked read(2) fail
  // with EINTR instead of resuming — exactly what a profiling or timer
  // signal does to a serving process. FdStreamBuf must retry, not EOF.
  struct sigaction action{};
  struct sigaction previous{};
  action.sa_handler = sigusr1_noop;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: read() fails with EINTR
  ASSERT_EQ(sigaction(SIGUSR1, &action, &previous), 0);

  PipePair pipe;
  std::string line;
  std::thread reader{[&] {
    FdStreamBuf buf{pipe.read_fd};
    std::istream in{&buf};
    std::getline(in, line);
  }};

  // Let the reader block in read(2), interrupt it a few times, then send
  // the actual payload.
  std::this_thread::sleep_for(std::chrono::milliseconds{50});
  for (int i = 0; i < 3; ++i) {
    pthread_kill(reader.native_handle(), SIGUSR1);
    std::this_thread::sleep_for(std::chrono::milliseconds{10});
  }
  const std::string message = "survived the signals\n";
  ASSERT_EQ(::write(pipe.write_fd, message.data(), message.size()),
            static_cast<ssize_t>(message.size()));
  reader.join();
  EXPECT_EQ(line, "survived the signals");
  sigaction(SIGUSR1, &previous, nullptr);
}

TEST(FdStream, FlushIntoClosedPeerFailsTheStreamNotTheProcess)
{
  SocketPair pair;
  ::close(pair.b);  // peer gone before we ever write
  pair.b = -1;

  FdStreamBuf buf{pair.a};
  std::ostream out{&buf};
  // Write enough that the buffered bytes must actually hit send(2); the
  // dead peer answers EPIPE, which must surface as stream failure — never
  // as a SIGPIPE that kills the process (that is the whole point of
  // MSG_NOSIGNAL in write_some).
  const std::string payload(64 * 1024, 'y');
  out << payload << std::flush;
  EXPECT_TRUE(out.fail());
}

TEST(FdStream, ShortWritesDeliverEverythingEventually)
{
  SocketPair pair;
  // Shrink the send buffer so one large write cannot complete in a single
  // send(2) — write_some must loop over partial progress while the reader
  // drains the other end.
  const int sndbuf = 4096;
  ::setsockopt(pair.a, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));

  const std::string payload(512 * 1024, 'z');
  std::string received;
  std::thread reader{[&] {
    char chunk[8192];
    for (;;) {
      const ssize_t n = ::read(pair.b, chunk, sizeof chunk);
      if (n <= 0) {
        break;
      }
      received.append(chunk, static_cast<std::size_t>(n));
      std::this_thread::sleep_for(std::chrono::microseconds{100});
    }
  }};

  {
    FdStreamBuf buf{pair.a};
    std::ostream out{&buf};
    out << payload << std::flush;
    EXPECT_FALSE(out.fail());
  }
  ::shutdown(pair.a, SHUT_WR);
  reader.join();
  EXPECT_EQ(received.size(), payload.size());
  EXPECT_EQ(received, payload);
}

TEST(FdStream, EofAfterPartialLineStillDeliversTheTail)
{
  PipePair pipe;
  const std::string tail = "no trailing newline";
  ASSERT_EQ(::write(pipe.write_fd, tail.data(), tail.size()),
            static_cast<ssize_t>(tail.size()));
  ::close(pipe.write_fd);
  pipe.write_fd = -1;

  FdStreamBuf buf{pipe.read_fd};
  std::istream in{&buf};
  std::string line;
  ASSERT_TRUE(std::getline(in, line));  // getline hits EOF but yields the tail
  EXPECT_EQ(line, tail);
  EXPECT_TRUE(in.eof());
}

}  // namespace
}  // namespace facet

#else  // !unix

TEST(FdStream, SkippedWithoutPosixFds)
{
  GTEST_SKIP() << "no POSIX fds on this platform";
}

#endif
