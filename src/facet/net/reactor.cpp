#include "facet/net/reactor.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define FACET_HAS_SOCKETS 1
#endif

#ifdef FACET_HAS_SOCKETS

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/epoll.h>
#endif

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
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

/// Readiness poller owned by the reactor thread. Connection fds are armed
/// one-shot (a fired fd stays silent until rearm), the wake pipe is
/// persistent level-triggered.
class Poller {
 public:
  virtual ~Poller() = default;
  virtual void add(int fd) = 0;
  virtual void rearm(int fd) = 0;
  virtual void remove(int fd) = 0;
  virtual void add_persistent(int fd) = 0;
  /// Appends every ready fd to `ready`; blocks up to timeout_ms (-1 =
  /// forever). EINTR returns with nothing ready.
  virtual void wait(std::vector<int>& ready, int timeout_ms) = 0;
};

#ifdef __linux__
class EpollPoller final : public Poller {
 public:
  EpollPoller() : ep_{::epoll_create1(EPOLL_CLOEXEC)}
  {
    if (ep_ < 0) {
      throw NetError{std::string{"epoll_create1: "} + std::strerror(errno)};
    }
  }
  ~EpollPoller() override { ::close(ep_); }

  void add(int fd) override { ctl(EPOLL_CTL_ADD, fd, EPOLLIN | EPOLLRDHUP | EPOLLONESHOT); }
  void rearm(int fd) override { ctl(EPOLL_CTL_MOD, fd, EPOLLIN | EPOLLRDHUP | EPOLLONESHOT); }
  void remove(int fd) override { ::epoll_ctl(ep_, EPOLL_CTL_DEL, fd, nullptr); }
  void add_persistent(int fd) override { ctl(EPOLL_CTL_ADD, fd, EPOLLIN); }

  void wait(std::vector<int>& ready, int timeout_ms) override
  {
    std::array<epoll_event, 128> events;
    const int n = ::epoll_wait(ep_, events.data(), static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) {
        return;
      }
      throw NetError{std::string{"epoll_wait: "} + std::strerror(errno)};
    }
    for (int i = 0; i < n; ++i) {
      ready.push_back(events[static_cast<std::size_t>(i)].data.fd);
    }
  }

 private:
  void ctl(int op, int fd, std::uint32_t mask)
  {
    epoll_event event{};
    event.events = mask;
    event.data.fd = fd;
    if (::epoll_ctl(ep_, op, fd, &event) < 0) {
      throw NetError{std::string{"epoll_ctl: "} + std::strerror(errno)};
    }
  }

  int ep_;
};
#endif  // __linux__

/// Portable poll(2) backend: the armed set is rebuilt into one pollfd array
/// per wait. O(connections) per wake where epoll is O(ready) — correct
/// everywhere, fast enough for the platforms that lack epoll.
class PollPoller final : public Poller {
 public:
  void add(int fd) override { armed_[fd] = true; }
  void rearm(int fd) override { armed_[fd] = true; }
  void remove(int fd) override { armed_.erase(fd); }
  void add_persistent(int fd) override { persistent_.push_back(fd); }

  void wait(std::vector<int>& ready, int timeout_ms) override
  {
    fds_.clear();
    for (const int fd : persistent_) {
      fds_.push_back(pollfd{fd, POLLIN, 0});
    }
    for (const auto& [fd, on] : armed_) {
      if (on) {
        fds_.push_back(pollfd{fd, POLLIN, 0});
      }
    }
    const int n = ::poll(fds_.data(), fds_.size(), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) {
        return;
      }
      throw NetError{std::string{"poll: "} + std::strerror(errno)};
    }
    for (std::size_t i = 0; i < fds_.size(); ++i) {
      if ((fds_[i].revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL)) == 0) {
        continue;
      }
      ready.push_back(fds_[i].fd);
      // one-shot semantics: disarm fired connection fds until rearm
      if (i >= persistent_.size()) {
        armed_[fds_[i].fd] = false;
      }
    }
  }

 private:
  std::unordered_map<int, bool> armed_;
  std::vector<int> persistent_;
  std::vector<pollfd> fds_;
};

/// Blocking full write; EINTR retried, SIGPIPE suppressed. False on any
/// unrecoverable failure (peer gone).
bool write_all(int fd, const std::string& data)
{
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && errno == ENOTSOCK) {
      const ssize_t m = ::write(fd, data.data() + sent, data.size() - sent);
      if (m > 0) {
        sent += static_cast<std::size_t>(m);
        continue;
      }
      if (m < 0 && errno == EINTR) {
        continue;
      }
    }
    return false;
  }
  return true;
}

}  // namespace

struct Reactor::Impl {
  struct Conn {
    Socket socket;
    std::unique_ptr<ReactorConnection> session;
    std::string in;  ///< received-but-unconsumed bytes, owned by the worker while busy
    std::chrono::steady_clock::time_point deadline{};
    bool busy = false;      ///< dispatched to a worker; reactor thread only
    bool in_wheel = false;  ///< has a live timer-wheel entry; reactor thread only
    bool draining = false;  ///< read side already shut down for drain
  };

  struct Task {
    Conn* conn = nullptr;
    bool close = false;  ///< true: run on_close and retire (idle expiry / drain)
  };

  explicit Impl(const ReactorOptions& opts) : options{opts}
  {
    auto& registry = obs::MetricRegistry::global();
    queue_depth = &registry.gauge("facet_serve_queue_depth");
    workers_gauge = &registry.gauge("facet_serve_workers");
    busy_workers = &registry.gauge("facet_serve_busy_workers");
    worker_tasks = &registry.counter("facet_serve_worker_tasks");
    worker_busy_ns = &registry.counter("facet_serve_worker_busy_ns");
  }

  // ---- configuration / metrics ----
  ReactorOptions options;
  obs::Gauge* queue_depth = nullptr;
  obs::Gauge* workers_gauge = nullptr;
  obs::Gauge* busy_workers = nullptr;
  obs::Counter* worker_tasks = nullptr;
  obs::Counter* worker_busy_ns = nullptr;

  // ---- reactor-thread state ----
  std::unique_ptr<Poller> poller;
  std::unordered_map<int, std::unique_ptr<Conn>> conns;
  static constexpr std::size_t kWheelSlots = 64;
  std::array<std::vector<int>, kWheelSlots> wheel;
  std::size_t wheel_pos = 0;
  std::chrono::milliseconds tick{0};
  std::chrono::steady_clock::time_point next_tick{};

  // ---- cross-thread state ----
  std::atomic<std::size_t> active{0};
  std::atomic<bool> stopping{false};

  std::mutex add_mutex;
  std::vector<std::pair<Socket, std::unique_ptr<ReactorConnection>>> pending_adds;

  std::mutex done_mutex;
  std::vector<std::pair<int, bool>> done;  // (fd, close)

  std::mutex task_mutex;
  std::condition_variable task_cv;
  std::deque<Task> tasks;
  bool workers_quit = false;

  int wake_read = -1;
  int wake_write = -1;
  bool started = false;
  bool stopped = false;
  std::size_t worker_count = 0;
  std::thread loop_thread;
  std::vector<std::thread> workers;

  // ------------------------------------------------------------------ wake

  void wake() noexcept
  {
    const char byte = 'w';
    [[maybe_unused]] const ssize_t n = ::write(wake_write, &byte, 1);
  }

  void drain_wake_pipe() noexcept
  {
    char buf[64];
    while (::read(wake_read, buf, sizeof buf) > 0) {
    }
  }

  // ----------------------------------------------------------- timer wheel

  /// Files a connection into the wheel slot nearest its deadline (clamped
  /// to one revolution). Lazy reinsertion: a popped entry whose deadline
  /// moved simply re-files itself, so bumping a deadline is free.
  void file_in_wheel(Conn* conn, int fd, std::chrono::steady_clock::time_point now)
  {
    if (conn->in_wheel || tick.count() == 0) {
      return;
    }
    const auto rel = conn->deadline > now
                         ? std::chrono::duration_cast<std::chrono::milliseconds>(
                               conn->deadline - now)
                         : std::chrono::milliseconds{0};
    std::size_t ticks_ahead = static_cast<std::size_t>(rel / tick) + 1;
    ticks_ahead = std::min(ticks_ahead, kWheelSlots - 1);
    wheel[(wheel_pos + ticks_ahead) % kWheelSlots].push_back(fd);
    conn->in_wheel = true;
  }

  void advance_wheel(std::chrono::steady_clock::time_point now)
  {
    if (tick.count() == 0) {
      return;
    }
    while (now >= next_tick) {
      std::vector<int> entries = std::move(wheel[wheel_pos]);
      wheel[wheel_pos].clear();
      wheel_pos = (wheel_pos + 1) % kWheelSlots;
      next_tick += tick;
      for (const int fd : entries) {
        const auto it = conns.find(fd);
        if (it == conns.end()) {
          continue;  // closed since it was filed
        }
        Conn* conn = it->second.get();
        conn->in_wheel = false;
        if (conn->busy) {
          // a worker owns it — re-check one tick after it comes back
          file_in_wheel(conn, fd, now);
          continue;
        }
        if (now >= conn->deadline) {
          // Expire through the worker pool so on_close (which may flush a
          // delta log) never blocks the event loop.
          conn->busy = true;
          enqueue(Task{conn, /*close=*/true});
          continue;
        }
        file_in_wheel(conn, fd, now);
      }
    }
  }

  // ------------------------------------------------------------ task queue

  void enqueue(Task task)
  {
    {
      const std::lock_guard<std::mutex> lock{task_mutex};
      tasks.push_back(task);
    }
    queue_depth->add(1);
    task_cv.notify_one();
  }

  void post_done(int fd, bool close)
  {
    {
      const std::lock_guard<std::mutex> lock{done_mutex};
      done.emplace_back(fd, close);
    }
    wake();
  }

  // ------------------------------------------------------------ worker side

  void worker_loop()
  {
    for (;;) {
      Task task;
      {
        std::unique_lock<std::mutex> lock{task_mutex};
        task_cv.wait(lock, [this] { return workers_quit || !tasks.empty(); });
        if (tasks.empty()) {
          return;  // workers_quit and drained
        }
        task = tasks.front();
        tasks.pop_front();
      }
      queue_depth->sub(1);
      busy_workers->add(1);
      const std::uint64_t t0 = obs::now_ticks();
      run_task(task);
      worker_busy_ns->inc(obs::ticks_to_ns(obs::now_ticks() - t0));
      worker_tasks->inc();
      busy_workers->sub(1);
    }
  }

  void run_task(const Task& task)
  {
    Conn* conn = task.conn;
    const int fd = conn->socket.fd();
    if (task.close) {
      conn->session->on_close();
      conn->socket.shutdown_both();
      post_done(fd, /*close=*/true);
      return;
    }

    // Drain everything the kernel has buffered; the fd is one-shot armed,
    // so bytes left unread here would wait for the next poll wake.
    bool eof = false;
    bool fail = false;
    char buf[16384];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, MSG_DONTWAIT);
      if (n > 0) {
        conn->in.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) {
        eof = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      if (errno == EINTR) {
        continue;
      }
      fail = true;
      break;
    }

    std::string out;
    bool keep = true;
    try {
      keep = conn->session->on_data(conn->in, out);
    } catch (const std::exception& e) {
      std::cerr << "facet-serve: session error: " << e.what() << "\n";
      keep = false;
    }
    if (!out.empty() && !write_all(fd, out)) {
      fail = true;
    }
    if (eof || fail || !keep) {
      conn->session->on_close();
      conn->socket.shutdown_both();
      post_done(fd, /*close=*/true);
      return;
    }
    post_done(fd, /*close=*/false);
  }

  // ----------------------------------------------------------- reactor side

  void process_pending_adds(std::chrono::steady_clock::time_point now)
  {
    std::vector<std::pair<Socket, std::unique_ptr<ReactorConnection>>> adds;
    {
      const std::lock_guard<std::mutex> lock{add_mutex};
      adds.swap(pending_adds);
    }
    for (auto& [socket, session] : adds) {
      if (stopping.load(std::memory_order_relaxed)) {
        session->on_close();
        continue;  // socket closes via RAII
      }
      const int fd = socket.fd();
      auto conn = std::make_unique<Conn>();
      conn->socket = std::move(socket);
      conn->session = std::move(session);
      conn->deadline = now + options.idle_timeout;
      Conn* raw = conn.get();
      conns[fd] = std::move(conn);
      active.fetch_add(1, std::memory_order_relaxed);
      try {
        poller->add(fd);
      } catch (const std::exception& e) {
        std::cerr << "facet-serve: reactor add failed: " << e.what() << "\n";
        raw->session->on_close();
        conns.erase(fd);
        active.fetch_sub(1, std::memory_order_relaxed);
        continue;
      }
      file_in_wheel(raw, fd, now);
    }
  }

  void process_done(std::chrono::steady_clock::time_point now)
  {
    std::vector<std::pair<int, bool>> finished;
    {
      const std::lock_guard<std::mutex> lock{done_mutex};
      finished.swap(done);
    }
    for (const auto& [fd, close] : finished) {
      const auto it = conns.find(fd);
      if (it == conns.end()) {
        continue;
      }
      Conn* conn = it->second.get();
      conn->busy = false;
      if (close) {
        poller->remove(fd);
        conns.erase(it);
        active.fetch_sub(1, std::memory_order_relaxed);
        continue;
      }
      if (stopping.load(std::memory_order_relaxed) && !conn->draining) {
        ::shutdown(fd, SHUT_RD);  // next read wakes as EOF -> close path
        conn->draining = true;
      }
      conn->deadline = now + options.idle_timeout;
      try {
        poller->rearm(fd);
      } catch (const std::exception& e) {
        std::cerr << "facet-serve: reactor rearm failed: " << e.what() << "\n";
        conn->session->on_close();
        poller->remove(fd);
        conns.erase(fd);
        active.fetch_sub(1, std::memory_order_relaxed);
        continue;
      }
      file_in_wheel(conn, fd, now);
    }
  }

  void dispatch_ready(const std::vector<int>& ready,
                      std::chrono::steady_clock::time_point now)
  {
    for (const int fd : ready) {
      if (fd == wake_read) {
        continue;
      }
      const auto it = conns.find(fd);
      if (it == conns.end()) {
        continue;
      }
      Conn* conn = it->second.get();
      if (conn->busy) {
        continue;  // cannot fire (one-shot), but defend anyway
      }
      conn->busy = true;
      conn->deadline = now + options.idle_timeout;
      enqueue(Task{conn, /*close=*/false});
    }
  }

  /// First drain step: shut down every connection's read side. Each then
  /// wakes with EOF and retires through the normal worker close path, so
  /// in-flight responses are written and on_close flushes appends.
  void begin_drain()
  {
    for (const auto& [fd, conn] : conns) {
      if (!conn->draining) {
        ::shutdown(fd, SHUT_RD);
        conn->draining = true;
      }
    }
  }

  void event_loop()
  {
    bool drain_begun = false;
    std::vector<int> ready;
    for (;;) {
      const auto now = std::chrono::steady_clock::now();
      if (stopping.load(std::memory_order_relaxed) && !drain_begun) {
        begin_drain();
        drain_begun = true;
      }
      {
        // exit only with nothing left to own or adopt
        const std::lock_guard<std::mutex> lock{add_mutex};
        if (drain_begun && conns.empty() && pending_adds.empty()) {
          return;
        }
      }
      int timeout_ms = -1;
      if (tick.count() != 0) {
        const auto until =
            std::chrono::duration_cast<std::chrono::milliseconds>(next_tick - now);
        timeout_ms = static_cast<int>(std::max<long long>(0, until.count()));
      }
      ready.clear();
      poller->wait(ready, timeout_ms);
      drain_wake_pipe();
      process_done(std::chrono::steady_clock::now());
      process_pending_adds(std::chrono::steady_clock::now());
      dispatch_ready(ready, std::chrono::steady_clock::now());
      advance_wheel(std::chrono::steady_clock::now());
    }
  }
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

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    throw NetError{std::string{"pipe: "} + std::strerror(errno)};
  }
  im.wake_read = pipe_fds[0];
  im.wake_write = pipe_fds[1];
  ::fcntl(im.wake_read, F_SETFL, O_NONBLOCK);
  ::fcntl(im.wake_write, F_SETFL, O_NONBLOCK);

#ifdef __linux__
  if (!im.options.use_poll) {
    im.poller = std::make_unique<EpollPoller>();
  }
#endif
  if (!im.poller) {
    im.poller = std::make_unique<PollPoller>();
  }
  im.poller->add_persistent(im.wake_read);

  if (im.options.idle_timeout.count() > 0) {
    im.tick = std::max<std::chrono::milliseconds>(
        std::chrono::milliseconds{1},
        im.options.idle_timeout / static_cast<int>(Impl::kWheelSlots / 2));
    im.next_tick = std::chrono::steady_clock::now() + im.tick;
  }

  im.worker_count = im.options.workers != 0
                        ? im.options.workers
                        : std::max(1u, std::thread::hardware_concurrency());
  im.workers_gauge->set(static_cast<std::int64_t>(im.worker_count));
  im.workers.reserve(im.worker_count);
  for (std::size_t i = 0; i < im.worker_count; ++i) {
    im.workers.emplace_back([this] { impl_->worker_loop(); });
  }
  im.loop_thread = std::thread{[this] {
    try {
      impl_->event_loop();
    } catch (const std::exception& e) {
      std::cerr << "facet-serve: reactor loop died: " << e.what() << "\n";
    }
  }};
}

void Reactor::stop()
{
  Impl& im = *impl_;
  if (!im.started || im.stopped) {
    return;
  }
  im.stopped = true;
  im.stopping.store(true, std::memory_order_relaxed);
  im.wake();
  if (im.loop_thread.joinable()) {
    im.loop_thread.join();
  }
  // Adopt any add that raced the loop exit: its on_close must still run.
  {
    const std::lock_guard<std::mutex> lock{im.add_mutex};
    for (auto& [socket, session] : im.pending_adds) {
      session->on_close();
    }
    im.pending_adds.clear();
  }
  {
    const std::lock_guard<std::mutex> lock{im.task_mutex};
    im.workers_quit = true;
  }
  im.task_cv.notify_all();
  for (std::thread& worker : im.workers) {
    if (worker.joinable()) {
      worker.join();
    }
  }
  im.workers.clear();
  ::close(im.wake_read);
  ::close(im.wake_write);
  im.wake_read = im.wake_write = -1;
  im.workers_gauge->set(0);
}

void Reactor::add(Socket socket, std::unique_ptr<ReactorConnection> session)
{
  Impl& im = *impl_;
  {
    const std::lock_guard<std::mutex> lock{im.add_mutex};
    if (!im.stopping.load(std::memory_order_relaxed) && im.started && !im.stopped) {
      im.pending_adds.emplace_back(std::move(socket), std::move(session));
      im.wake();
      return;
    }
  }
  session->on_close();  // reactor gone: retire the session immediately
}

std::size_t Reactor::active_connections() const noexcept
{
  return impl_->active.load(std::memory_order_relaxed);
}

std::size_t Reactor::num_workers() const noexcept
{
  return impl_->worker_count;
}

}  // namespace facet

#else  // !FACET_HAS_SOCKETS

namespace facet {

struct Reactor::Impl {};

Reactor::Reactor(const ReactorOptions&) {}
Reactor::~Reactor() = default;

void Reactor::start()
{
  throw NetError{"reactor unsupported on this platform"};
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

std::size_t Reactor::num_workers() const noexcept
{
  return 0;
}

}  // namespace facet

#endif  // FACET_HAS_SOCKETS
