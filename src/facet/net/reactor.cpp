#include "facet/net/reactor.hpp"

#ifdef __linux__

#include <errno.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <exception>
#include <iostream>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "facet/obs/clock.hpp"
#include "facet/obs/registry.hpp"

namespace facet {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kWheelSlots = 64;

[[noreturn]] void throw_errno(const char* what)
{
  throw NetError{std::string{what} + ": " + std::strerror(errno)};
}

/// SO_SNDTIMEO: a blocking send that makes no progress for `timeout` fails
/// with EAGAIN instead of waiting forever on a peer that stopped reading.
void set_send_timeout(int fd, std::chrono::milliseconds timeout) noexcept
{
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

}  // namespace

struct Reactor::Impl {
  struct Conn {
    Socket socket;
    std::unique_ptr<ReactorConnection> session;
    std::string in;  ///< received-but-unconsumed bytes
    Clock::time_point deadline{};
    bool in_wheel = false;  ///< has a live timer-wheel entry
  };

  using Pending = std::pair<Socket, std::unique_ptr<ReactorConnection>>;
  using ConnTable = std::unordered_map<int, std::unique_ptr<Conn>>;

  /// One event loop. Everything but `load` and `pending` is touched only by
  /// the loop's own thread.
  struct Loop {
    explicit Loop(Impl& owner)
        : im{owner},
          epoll{::epoll_create1(EPOLL_CLOEXEC)},
          wake_fd{::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)},
          next_tick{Clock::now() + owner.tick}
    {
      if (!epoll.valid() || !wake_fd.valid()) {
        throw_errno("event loop setup");
      }
      watch(wake_fd.fd());
    }

    Impl& im;
    Socket epoll;    ///< the epoll instance (Socket is the RAII fd holder)
    Socket wake_fd;  ///< eventfd: add() and stop() wake the loop through it
    std::thread thread;

    /// Open connections plus adds not yet adopted: add() balances on it.
    std::atomic<std::size_t> load{0};
    std::mutex add_mutex;
    std::vector<Pending> pending;

    ConnTable conns;
    std::vector<Pending> adopting;  ///< pending, swapped out under the lock
    std::string out;                ///< reply scratch, reused across runs
    std::array<std::vector<int>, kWheelSlots> wheel;
    std::size_t wheel_pos = 0;
    Clock::time_point next_tick;

    void wake() noexcept
    {
      const std::uint64_t one = 1;
      [[maybe_unused]] const ssize_t n = ::write(wake_fd.fd(), &one, sizeof one);
    }

    void watch(int fd)
    {
      epoll_event event{};
      event.events = EPOLLIN | EPOLLRDHUP;
      event.data.fd = fd;
      if (::epoll_ctl(epoll.fd(), EPOLL_CTL_ADD, fd, &event) != 0) {
        throw_errno("epoll_ctl");
      }
    }

    void retire(ConnTable::iterator it) noexcept
    {
      it->second->session->on_close();
      ::epoll_ctl(epoll.fd(), EPOLL_CTL_DEL, it->first, nullptr);
      conns.erase(it);  // closes the socket
      load.fetch_sub(1, std::memory_order_relaxed);
      im.active.fetch_sub(1, std::memory_order_relaxed);
    }

    void adopt_pending()
    {
      std::uint64_t count = 0;
      [[maybe_unused]] const ssize_t n = ::read(wake_fd.fd(), &count, sizeof count);
      {
        const std::lock_guard<std::mutex> lock{add_mutex};
        adopting.swap(pending);
      }
      const auto now = Clock::now();
      for (auto& [socket, session] : adopting) {
        if (im.stopping.load(std::memory_order_relaxed)) {
          session->on_close();  // socket closes with `adopting`
          load.fetch_sub(1, std::memory_order_relaxed);
          continue;
        }
        const int fd = socket.fd();
        try {
          watch(fd);
        } catch (const std::exception& e) {
          std::cerr << "facet-serve: reactor add failed: " << e.what() << "\n";
          session->on_close();
          load.fetch_sub(1, std::memory_order_relaxed);
          continue;
        }
        if (im.tick.count() != 0) {
          set_send_timeout(fd, im.options.idle_timeout);
        }
        auto conn = std::make_unique<Conn>();
        conn->socket = std::move(socket);
        conn->session = std::move(session);
        conn->deadline = now + im.options.idle_timeout;
        Conn& adopted = *conn;
        conns.emplace(fd, std::move(conn));
        im.active.fetch_add(1, std::memory_order_relaxed);
        file_in_wheel(adopted, fd, now);
      }
      adopting.clear();
    }

    /// One readiness run, to completion: take what the kernel buffered,
    /// run the session, write its reply.
    void serve(ConnTable::iterator it)
    {
      const std::uint64_t t0 = obs::now_ticks();
      Conn& conn = *it->second;
      const int fd = it->first;
      bool closed = false;  // EOF or a socket error
      char buf[16384];
      for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, MSG_DONTWAIT);
        if (n > 0) {
          conn.in.append(buf, static_cast<std::size_t>(n));
          if (static_cast<std::size_t>(n) < sizeof buf) {
            break;  // drained; anything later reports ready again
          }
          continue;
        }
        if (n < 0 && errno == EINTR) {
          continue;
        }
        closed = n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
        break;
      }

      out.clear();
      bool keep = true;
      try {
        keep = conn.session->on_data(conn.in, out);
      } catch (const std::exception& e) {
        std::cerr << "facet-serve: session error: " << e.what() << "\n";
        keep = false;
      }
      if (!out.empty() && !send_all(fd, out)) {
        closed = true;
      }
      if (closed || !keep) {
        retire(it);
      } else if (im.tick.count() != 0) {
        conn.deadline = Clock::now() + im.options.idle_timeout;
      }
      im.tasks->inc();
      im.busy_ns->inc(obs::ticks_to_ns(obs::now_ticks() - t0));
    }

    /// Files a connection into the wheel slot nearest its deadline (clamped
    /// to one revolution). Lazy reinsertion: a popped entry whose deadline
    /// moved simply re-files itself, so bumping a deadline is free.
    void file_in_wheel(Conn& conn, int fd, Clock::time_point now)
    {
      if (conn.in_wheel || im.tick.count() == 0) {
        return;
      }
      const auto rel = conn.deadline > now ? std::chrono::duration_cast<std::chrono::milliseconds>(
                                                 conn.deadline - now)
                                           : std::chrono::milliseconds{0};
      const std::size_t ticks_ahead =
          std::min(static_cast<std::size_t>(rel / im.tick) + 1, kWheelSlots - 1);
      wheel[(wheel_pos + ticks_ahead) % kWheelSlots].push_back(fd);
      conn.in_wheel = true;
    }

    void advance_wheel(Clock::time_point now)
    {
      if (im.tick.count() == 0) {
        return;
      }
      while (now >= next_tick) {
        std::vector<int> entries = std::move(wheel[wheel_pos]);
        wheel[wheel_pos].clear();
        wheel_pos = (wheel_pos + 1) % kWheelSlots;
        next_tick += im.tick;
        for (const int fd : entries) {
          const auto it = conns.find(fd);
          if (it == conns.end()) {
            continue;  // closed since it was filed
          }
          it->second->in_wheel = false;
          if (now >= it->second->deadline) {
            retire(it);
          } else {
            file_in_wheel(*it->second, fd, now);
          }
        }
      }
    }

    void run()
    {
      bool draining = false;
      std::array<epoll_event, 128> events;
      for (;;) {
        if (!draining && im.stopping.load(std::memory_order_relaxed)) {
          // Each connection now wakes with EOF and retires through serve(),
          // so in-flight replies are written and on_close flushes appends.
          for (const auto& entry : conns) {
            ::shutdown(entry.first, SHUT_RD);
          }
          draining = true;
        }
        if (draining && conns.empty()) {
          const std::lock_guard<std::mutex> lock{add_mutex};
          if (pending.empty()) {
            return;  // nothing left to own or adopt
          }
        }
        int timeout_ms = -1;
        if (im.tick.count() != 0) {
          const auto until =
              std::chrono::duration_cast<std::chrono::milliseconds>(next_tick - Clock::now());
          timeout_ms = static_cast<int>(std::max<long long>(0, until.count()));
        }
        const int n =
            ::epoll_wait(epoll.fd(), events.data(), static_cast<int>(events.size()), timeout_ms);
        if (n < 0 && errno != EINTR) {
          throw_errno("epoll_wait");
        }
        // Expiry judges idleness as of this wake, not after the batch: a
        // connection whose bytes arrive while a slow run holds the loop is
        // served by the next wait instead of expiring as idle.
        const auto woke = Clock::now();
        for (int i = 0; i < n; ++i) {
          const int fd = events[static_cast<std::size_t>(i)].data.fd;
          if (fd == wake_fd.fd()) {
            adopt_pending();
            continue;
          }
          const auto it = conns.find(fd);
          if (it != conns.end()) {
            serve(it);
          }
        }
        advance_wheel(woke);
      }
    }

    /// After the thread is gone: retire whatever a dead loop left behind,
    /// so every session still sees exactly one on_close.
    void abandon() noexcept
    {
      while (!conns.empty()) {
        retire(conns.begin());
      }
      const std::lock_guard<std::mutex> lock{add_mutex};
      for (auto& [socket, session] : pending) {
        session->on_close();
      }
      pending.clear();
    }
  };

  explicit Impl(const ReactorOptions& opts) : options{opts}
  {
    auto& registry = obs::MetricRegistry::global();
    loops_gauge = &registry.gauge("facet_serve_workers");
    tasks = &registry.counter("facet_serve_worker_tasks");
    busy_ns = &registry.counter("facet_serve_worker_busy_ns");
  }

  Loop& least_loaded() noexcept
  {
    Loop* best = nullptr;
    std::size_t best_load = 0;
    for (const auto& loop : loops) {
      const std::size_t load = loop->load.load(std::memory_order_relaxed);
      if (best == nullptr || load < best_load) {
        best = loop.get();
        best_load = load;
      }
    }
    return *best;
  }

  ReactorOptions options;
  std::chrono::milliseconds tick{0};  ///< timer-wheel slot width; 0 = no idle timeout
  obs::Gauge* loops_gauge = nullptr;
  obs::Counter* tasks = nullptr;
  obs::Counter* busy_ns = nullptr;

  std::atomic<std::size_t> active{0};
  std::atomic<bool> stopping{false};
  /// Built by start() and kept until destruction, so a late add() never
  /// touches a freed loop.
  std::vector<std::unique_ptr<Loop>> loops;
  bool started = false;
  bool stopped = false;
};

Reactor::Reactor(const ReactorOptions& options) : impl_{std::make_unique<Impl>(options)} {}

Reactor::~Reactor()
{
  stop();
}

void Reactor::start()
{
  Impl& im = *impl_;
  if (im.started) {
    return;
  }
  im.started = true;
  if (im.options.idle_timeout.count() > 0) {
    im.tick = std::max<std::chrono::milliseconds>(
        std::chrono::milliseconds{1}, im.options.idle_timeout / static_cast<int>(kWheelSlots / 2));
  }
  const std::size_t count = im.options.workers != 0
                                ? im.options.workers
                                : std::max(1u, std::thread::hardware_concurrency());
  for (std::size_t i = 0; i < count; ++i) {
    im.loops.push_back(std::make_unique<Impl::Loop>(im));
  }
  for (const auto& loop : im.loops) {
    loop->thread = std::thread{[&loop = *loop] {
      try {
        loop.run();
      } catch (const std::exception& e) {
        std::cerr << "facet-serve: event loop died: " << e.what() << "\n";
      }
    }};
  }
  im.loops_gauge->set(static_cast<std::int64_t>(count));
}

void Reactor::stop()
{
  Impl& im = *impl_;
  if (!im.started || im.stopped) {
    return;
  }
  im.stopped = true;
  im.stopping.store(true, std::memory_order_relaxed);
  for (const auto& loop : im.loops) {
    loop->wake();
  }
  for (const auto& loop : im.loops) {
    if (loop->thread.joinable()) {
      loop->thread.join();
    }
    loop->abandon();
  }
  im.loops_gauge->set(0);
}

void Reactor::add(Socket socket, std::unique_ptr<ReactorConnection> session)
{
  Impl& im = *impl_;
  if (!im.stopping.load(std::memory_order_relaxed) && !im.loops.empty()) {
    Impl::Loop& loop = im.least_loaded();
    loop.load.fetch_add(1, std::memory_order_relaxed);
    {
      const std::lock_guard<std::mutex> lock{loop.add_mutex};
      if (!im.stopping.load(std::memory_order_relaxed)) {
        loop.pending.emplace_back(std::move(socket), std::move(session));
        loop.wake();
        return;
      }
    }
    loop.load.fetch_sub(1, std::memory_order_relaxed);
  }
  session->on_close();  // reactor not running: retire the session immediately
}

std::size_t Reactor::active_connections() const noexcept
{
  return impl_->active.load(std::memory_order_relaxed);
}

std::size_t Reactor::num_loops() const noexcept
{
  return impl_->loops.size();
}

}  // namespace facet

#else  // !__linux__

namespace facet {

struct Reactor::Impl {};

Reactor::Reactor(const ReactorOptions&) {}
Reactor::~Reactor() = default;

void Reactor::start()
{
  throw NetError{"serving needs Linux (epoll)"};
}

void Reactor::stop() {}

void Reactor::add(Socket, std::unique_ptr<ReactorConnection> session)
{
  session->on_close();
}

std::size_t Reactor::active_connections() const noexcept
{
  return 0;
}

std::size_t Reactor::num_loops() const noexcept
{
  return 0;
}

}  // namespace facet

#endif  // __linux__
