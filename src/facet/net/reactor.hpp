/// \file reactor.hpp
/// \brief N run-to-completion epoll loops that own the server's connections.
///
/// The reactor runs `workers` event loops, one thread each. A loop owns one
/// epoll fd, one wake fd, its connection table and its timer wheel, and it
/// serves every ready connection inline: receive what the kernel buffered,
/// run the session, write the reply, wait again. An idle connection costs
/// one epoll registration and one timer-wheel entry — no thread, no stack —
/// so thousands of mostly-idle clients share a handful of loops.
///
/// Ownership and threading contract:
///  - add() hands a connection to the loop with the fewest connections
///    (open or still pending adoption), ties to the lowest index. That is
///    the only cross-thread hand-off; from adoption to close a connection
///    lives on one loop, and every session call runs on that loop's thread.
///  - Registrations are level-triggered (EPOLLIN | EPOLLRDHUP): bytes a
///    run leaves unread simply report ready again on the next wait.
///  - The reply write blocks. A slow session call — say an `append` that
///    canonicalizes a hard width-6 function (~0.5 ms) — delays the other
///    connections on the same loop for that long; a readonly server never
///    pays this. With an idle timeout set, every connection also gets it
///    as SO_SNDTIMEO, so a peer that stops reading fails its write after
///    that long and is closed instead of freezing its loop.
///  - Idle timeout is a 64-slot hashed timer wheel per loop with lazy
///    reinsertion: activity just bumps the deadline, and a popped entry
///    whose deadline moved re-files itself. Expiry runs on_close inline.
///  - stop() shuts down every connection's read side and drains: each loop
///    serves the resulting EOFs through the normal close path (on_close
///    flushes appends) and exits only when its table is empty — stop()
///    returns after every loop has.
///
/// Serving needs Linux (epoll); elsewhere start() throws NetError.

#pragma once

#include <chrono>
#include <cstddef>
#include <memory>
#include <string>

#include "facet/net/socket.hpp"

namespace facet {

/// Protocol session owned by one reactor connection. Every call runs on
/// the thread of the loop that owns the connection, one at a time.
class ReactorConnection {
 public:
  virtual ~ReactorConnection() = default;

  /// Called with every byte received so far (`in` accumulates; consume what
  /// you parse by erasing it). Append response bytes to `out` — the loop
  /// writes them before it waits again. Return false to close the
  /// connection after `out` drains.
  virtual bool on_data(std::string& in, std::string& out) = 0;

  /// Called exactly once, just before the connection is destroyed — on EOF,
  /// error, protocol close, idle expiry, or drain. Flush durable state
  /// here.
  virtual void on_close() noexcept = 0;
};

struct ReactorOptions {
  /// Event loops (one thread each); 0 = std::thread::hardware_concurrency().
  std::size_t workers = 0;
  /// Close connections idle for this long; <= 0 disables the timer wheel.
  /// Also each connection's send timeout (SO_SNDTIMEO).
  std::chrono::milliseconds idle_timeout{0};
};

class Reactor {
 public:
  explicit Reactor(const ReactorOptions& options);
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  void start();

  /// Graceful drain: shuts down every connection's read side, lets each
  /// loop finish in-flight requests and run on_close, then joins every
  /// loop. Idempotent.
  void stop();

  /// Hands a connected socket to the least-loaded loop. Thread-safe (called
  /// from the accept loop). If the reactor is not running the session's
  /// on_close runs immediately and the socket is dropped.
  void add(Socket socket, std::unique_ptr<ReactorConnection> session);

  [[nodiscard]] std::size_t active_connections() const noexcept;
  [[nodiscard]] std::size_t num_loops() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace facet
