/// \file reactor.hpp
/// \brief Epoll (poll fallback) event loop + fixed worker pool for the server.
///
/// One reactor thread owns every connection fd through a readiness poller;
/// a fixed pool of workers runs the protocol sessions. An idle connection
/// costs one poller registration and one timer-wheel entry — no thread, no
/// stack — so thousands of mostly-idle clients share a worker pool sized to
/// the hardware.
///
/// Ownership and threading contract:
///  - The reactor thread is the only mutator of the connection table and the
///    only caller of the poller. Workers never touch the poller.
///  - A ready fd is dispatched to a worker with the connection marked busy;
///    the poller registration is one-shot, so the same fd cannot be
///    dispatched twice. The worker reads, runs the session, writes the
///    response, then posts a done message back; only then does the reactor
///    rearm or erase the connection. A worker therefore always holds an
///    exclusive, live connection.
///  - Idle timeout is a 64-slot hashed timer wheel with lazy reinsertion:
///    activity just bumps the deadline, and a popped entry whose deadline
///    moved re-files itself. Busy connections are never expired.
///  - stop() shuts down every connection's read side and drains: EOF events
///    flow through the normal worker close path (on_close flushes appends),
///    and stop() returns only when the table is empty — the graceful-drain
///    guarantee the thread-per-connection server had, at fleet scale.

#pragma once

#include <chrono>
#include <cstddef>
#include <memory>
#include <string>

#include "facet/net/socket.hpp"

namespace facet {

/// Protocol session owned by one reactor connection. Implementations are
/// called by exactly one worker at a time (never concurrently), but not
/// always the same worker — keep per-connection state in the object, not in
/// thread-locals.
class ReactorConnection {
 public:
  virtual ~ReactorConnection() = default;

  /// Called with every byte received so far (`in` accumulates; consume what
  /// you parse by erasing it). Append response bytes to `out` — the worker
  /// writes them before the connection is rearmed. Return false to close
  /// the connection after `out` drains.
  virtual bool on_data(std::string& in, std::string& out) = 0;

  /// Called exactly once, just before the connection is destroyed — on EOF,
  /// error, protocol close, idle expiry, or drain. Flush durable state
  /// here.
  virtual void on_close() noexcept = 0;
};

struct ReactorOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  std::size_t workers = 0;
  /// Close connections idle for this long; <= 0 disables the timer wheel.
  std::chrono::milliseconds idle_timeout{0};
  /// Force the portable poll(2) backend even where epoll is available —
  /// exists so the fallback is testable on Linux, not for production use.
  bool use_poll = false;
};

class Reactor {
 public:
  explicit Reactor(const ReactorOptions& options);
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  void start();

  /// Graceful drain: shuts down every connection's read side, lets workers
  /// finish in-flight requests and run on_close, then joins everything.
  /// Idempotent.
  void stop();

  /// Hands a connected socket to the reactor. Thread-safe (called from the
  /// accept loop). If the reactor is stopping the session's on_close runs
  /// immediately and the socket is dropped.
  void add(Socket socket, std::unique_ptr<ReactorConnection> session);

  [[nodiscard]] std::size_t active_connections() const noexcept;
  [[nodiscard]] std::size_t num_workers() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace facet
