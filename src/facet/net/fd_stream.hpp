/// \file fd_stream.hpp
/// \brief A std::streambuf over a POSIX file descriptor.
///
/// Blocking socket clients (and the server's one-shot capacity reply) talk
/// through std::istream / std::ostream; FdStreamBuf is the bridge: buffered
/// reads and writes over one fd, with EINTR retries and SIGPIPE suppressed
/// on socket writes (a peer that disconnects mid-write must surface as a
/// stream error, never kill the process).
///
/// The buffer does not own the descriptor — the Socket (socket.hpp) or
/// whatever opened the fd closes it. One FdStreamBuf must not be driven
/// from two threads at once; every connection owns its own.

#pragma once

#include <cstddef>
#include <streambuf>
#include <vector>

namespace facet {

class FdStreamBuf final : public std::streambuf {
 public:
  explicit FdStreamBuf(int fd, std::size_t buffer_bytes = 8192);

  FdStreamBuf(const FdStreamBuf&) = delete;
  FdStreamBuf& operator=(const FdStreamBuf&) = delete;

  ~FdStreamBuf() override;

 protected:
  int_type underflow() override;
  int_type overflow(int_type ch) override;
  int sync() override;

 private:
  /// Writes the pending output buffer fully; false on any write error.
  bool flush_pending();

  int fd_;
  std::vector<char> in_buf_;
  std::vector<char> out_buf_;
};

}  // namespace facet
