#include "facet/net/server.hpp"

#include <algorithm>
#include <exception>
#include <iostream>
#include <string>
#include <utility>

#include "facet/net/frame.hpp"
#include "facet/obs/clock.hpp"
#include "facet/obs/registry.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define FACET_HAS_SOCKETS 1
#include <cerrno>
#include <csignal>
#include <poll.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define FACET_HAS_SOCKETS 0
#endif

namespace facet {

namespace {

/// `facet_serve_active_connections`: connections currently inside
/// handle_connection, process-wide.
obs::Gauge& active_connections_gauge()
{
  static obs::Gauge& gauge =
      obs::MetricRegistry::global().gauge("facet_serve_active_connections");
  return gauge;
}

/// `facet_serve_connection_lifetime`: accept-to-close duration of every
/// finished connection.
obs::LatencyHistogram& connection_lifetime_histogram()
{
  static obs::LatencyHistogram& histogram =
      obs::MetricRegistry::global().histogram("facet_serve_connection_lifetime");
  return histogram;
}

/// `facet_compaction_duration{phase=...}` handles. "total" spans flush
/// through adopt; the phases break the three-phase API down so a dashboard
/// separates the gate-free heavy merge from the gated swap.
obs::LatencyHistogram& compaction_histogram(const char* phase)
{
  return obs::MetricRegistry::global().histogram("facet_compaction_duration",
                                                 obs::label("phase", phase));
}

#if FACET_HAS_SOCKETS

/// (inode, mtime, size) of one file; zeros when absent. The readonly reload
/// poll compares these to spot an adopt_compacted rename (new inode) or a
/// primary dlog append (new size/mtime). Whole-second mtime granularity is
/// fine: adoption always renames, and appends always grow the log.
std::array<std::uint64_t, 3> file_stamp(const std::string& path) noexcept
{
  struct ::stat st = {};
  if (::stat(path.c_str(), &st) != 0) {
    return {0, 0, 0};
  }
  return {static_cast<std::uint64_t>(st.st_ino), static_cast<std::uint64_t>(st.st_mtime),
          static_cast<std::uint64_t>(st.st_size)};
}

/// Combined stamp of a served index: base segment + its delta log.
std::array<std::uint64_t, 6> index_stamp(const std::string& index_path) noexcept
{
  const auto base = file_stamp(index_path);
  const auto dlog = file_stamp(ClassStore::delta_log_path(index_path));
  return {base[0], base[1], base[2], dlog[0], dlog[1], dlog[2]};
}

#endif

}  // namespace

ServeServer::ServeServer(ClassStore& store, std::string index_path, ServeServerOptions options)
    : store_{&store}, options_{std::move(options)}
{
  index_paths_.emplace(store.num_vars(), std::move(index_path));
}

ServeServer::ServeServer(StoreRouter& router, std::map<int, std::string> index_paths,
                         ServeServerOptions options)
    : router_{&router}, index_paths_{std::move(index_paths)}, options_{std::move(options)}
{
}

std::vector<CompactionEvent> ServeServer::compaction_log() const
{
  const std::lock_guard<std::mutex> lock{compaction_log_mutex_};
  return compaction_log_;
}

ServeOptions ServeServer::session_options()
{
  ServeOptions session;
  session.readonly = options_.readonly;
  session.aggregate = &stats_;
  session.slow_request_us = options_.slow_request_us;
  // Delta logs are wired on every writable server: append is a per-request
  // policy, and an `append` frame must be durable. A session that appended
  // nothing flushes nothing.
  if (!options_.readonly) {
    if (router_ != nullptr) {
      for (const auto& [width, path] : index_paths_) {
        session.dlog_paths.emplace(width, ClassStore::delta_log_path(path));
      }
    } else {
      session.dlog_path = ClassStore::delta_log_path(index_paths_.begin()->second);
    }
  }
  return session;
}

/// One reactor-owned connection: the shared ServeDispatcher behind a v2
/// FrameSession. Every call runs on the thread of the loop that owns the
/// connection; the dispatcher counts straight into the server's aggregate.
class ServeConnection final : public ReactorConnection {
 public:
  explicit ServeConnection(ServeServer* server)
      : server_{server},
        dispatcher_{server->store_, server->router_, server->session_options()},
        frame_{&dispatcher_},
        accepted_ticks_{obs::now_ticks()}
  {
  }

  bool on_data(std::string& in, std::string& out) override
  {
    return frame_.consume(in, out) == FrameStep::kContinue;
  }

  void on_close() noexcept override
  {
    try {
      dispatcher_.flush_on_exit();
    } catch (...) {
      // flush failure must not escape the reactor's close path; the final
      // server-wide flush retries on shutdown
    }
    server_->on_connection_closed(accepted_ticks_);
  }

 private:
  ServeServer* server_;
  ServeDispatcher dispatcher_;
  FrameSession frame_;
  std::uint64_t accepted_ticks_;
};

#if FACET_HAS_SOCKETS

ServeServer::~ServeServer()
{
  if (started_ && !drained_) {
    request_shutdown();
    try {
      wait();
    } catch (...) {
      // destructor: nothing left to report to
    }
  }
  for (const int fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
    }
  }
}

void ServeServer::start()
{
  if (options_.listen.empty() && options_.unix_path.empty()) {
    throw NetError{"no endpoint configured (need --listen and/or --unix)"};
  }
  if (::pipe(wake_pipe_) != 0) {
    throw NetError{"cannot create shutdown pipe"};
  }
  // send_all passes MSG_NOSIGNAL; ignoring SIGPIPE as well keeps any other
  // write to a vanished peer in this process a write error, never a
  // process-killing signal.
  std::signal(SIGPIPE, SIG_IGN);
  // Size the accept backlog to the connection cap: a reactor fleet connects
  // in bursts far larger than the default 64, and an overflowing accept
  // queue silently drops handshake ACKs (clients hang in retransmit).
  const int backlog = static_cast<int>(
      std::min<std::size_t>(std::max<std::size_t>(options_.max_connections, 64), 4096));
  if (!options_.listen.empty()) {
    tcp_listener_ = listen_tcp(parse_tcp_endpoint(options_.listen), backlog);
    tcp_port_ = local_tcp_port(tcp_listener_);
  }
  if (!options_.unix_path.empty()) {
    unix_listener_ = listen_unix(options_.unix_path, backlog);
  }
  ReactorOptions reactor_options;
  reactor_options.workers = options_.workers;
  reactor_options.idle_timeout = options_.idle_timeout;
  reactor_ = std::make_unique<Reactor>(reactor_options);
  reactor_->start();
  started_ = true;
  accept_thread_ = std::thread{[this] {
    try {
      accept_loop();
    } catch (const std::exception& e) {
      std::cerr << "facet-serve: accept loop failed: " << e.what() << "\n";
      stopping_.store(true);
    }
  }};
  const bool compaction_enabled =
      !options_.readonly &&
      (options_.compact_after_runs != 0 || options_.compact_after_bytes != 0);
  if (compaction_enabled) {
    compactor_thread_ = std::thread{[this] { compactor_loop(); }};
  }
  if (options_.readonly && options_.reload_poll.count() > 0) {
    // Stamp before launching so startup never triggers a spurious reload —
    // the stores already serve exactly what is on disk right now.
    for (const auto& [width, path] : index_paths_) {
      reload_stamps_[width] = index_stamp(path);
    }
    reload_thread_ = std::thread{[this] { reload_poll_loop(); }};
  }
}

void ServeServer::request_shutdown() noexcept
{
  stopping_.store(true);
  if (wake_pipe_[1] >= 0) {
    const char byte = 'q';
    [[maybe_unused]] const auto written = ::write(wake_pipe_[1], &byte, 1);
  }
}

void ServeServer::accept_loop()
{
  std::vector<pollfd> fds;
  fds.push_back({wake_pipe_[0], POLLIN, 0});
  if (tcp_listener_.valid()) {
    fds.push_back({tcp_listener_.fd(), POLLIN, 0});
  }
  if (unix_listener_.valid()) {
    fds.push_back({unix_listener_.fd(), POLLIN, 0});
  }

  while (!stopping_.load()) {
    for (auto& fd : fds) {
      fd.revents = 0;
    }
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      continue;  // EINTR
    }
    if ((fds[0].revents & POLLIN) != 0 || stopping_.load()) {
      break;
    }
    for (std::size_t i = 1; i < fds.size(); ++i) {
      if ((fds[i].revents & POLLIN) == 0) {
        continue;
      }
      const Socket& listener =
          fds[i].fd == tcp_listener_.fd() ? tcp_listener_ : unix_listener_;
      int accept_errno = 0;
      Socket connection = accept_connection(listener, accept_errno);
      if (!connection.valid()) {
        if (accept_errno == EMFILE || accept_errno == ENFILE ||
            accept_errno == ENOBUFS || accept_errno == ENOMEM) {
          // fd / buffer pressure: an instant retry cannot succeed, so back
          // off — but on the shutdown pipe, never a blind sleep, so a
          // shutdown request still wakes the loop immediately.
          pollfd wake{wake_pipe_[0], POLLIN, 0};
          ::poll(&wake, 1, 10);
        }
        // EINTR / ECONNABORTED: retry immediately
        continue;
      }
      if (stats_.connections_active.load() >= options_.max_connections) {
        std::string reply;
        encode_response(reply, 0, FrameStatus::kAtCapacity,
                        "server at capacity (" + std::to_string(options_.max_connections) +
                            " connections)");
        (void)send_all(connection.fd(), reply);
        continue;  // connection closes on scope exit
      }
      ++stats_.connections_active;
      ++stats_.connections_total;
      active_connections_gauge().add(1);
      reactor_->add(std::move(connection), std::make_unique<ServeConnection>(this));
    }
  }
  tcp_listener_.close();
  unix_listener_.close();
  if (!options_.unix_path.empty()) {
    ::unlink(options_.unix_path.c_str());
  }
}

void ServeServer::on_connection_closed(std::uint64_t accepted_ticks) noexcept
{
  --stats_.connections_active;
  active_connections_gauge().sub(1);
  connection_lifetime_histogram().record_ns(obs::ticks_to_ns(obs::now_ticks() - accepted_ticks));
  compactor_cv_.notify_one();  // the exit flush may have sealed a new run
}

void ServeServer::wait()
{
  if (!started_) {
    throw NetError{"ServeServer::wait called before start"};
  }
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }

  // Drain: the reactor shuts down every connection's read side; each wakes
  // with EOF, its loop writes any in-flight response, and on_close flushes
  // appends to the delta log — stop() returns only when every loop's
  // connection table is empty.
  if (reactor_) {
    reactor_->stop();
  }

  if (compactor_thread_.joinable()) {
    compactor_cv_.notify_all();
    compactor_thread_.join();
  }
  if (reload_thread_.joinable()) {
    reload_cv_.notify_all();
    reload_thread_.join();
  }
  final_flush();
  drained_ = true;
}

void ServeServer::final_flush()
{
  // Sessions already flush on exit; this catches a store mutated outside
  // any session (belt and braces — shutdown must lose zero appends).
  // flush_delta serializes inside each store's gate.
  for (const auto& [width, path] : index_paths_) {
    ClassStore* store = router_ != nullptr ? router_->store_for(width) : store_;
    if (store == nullptr || store->num_appended() == 0) {
      continue;
    }
    try {
      stats_.flushed_records += store->flush_delta(ClassStore::delta_log_path(path));
    } catch (const std::exception& e) {
      std::cerr << "facet-serve: final flush of width " << width << " failed: " << e.what()
                << "\n";
    }
  }
}

void ServeServer::compactor_loop()
{
  std::unique_lock<std::mutex> lock{compactor_mutex_};
  while (!stopping_.load()) {
    compactor_cv_.wait_for(lock, options_.compact_poll);
    if (stopping_.load()) {
      break;
    }
    lock.unlock();
    run_due_compactions();
    lock.lock();
  }
}

void ServeServer::reload_poll_loop()
{
  std::unique_lock<std::mutex> lock{reload_mutex_};
  while (!stopping_.load()) {
    reload_cv_.wait_for(lock, options_.reload_poll);
    if (stopping_.load()) {
      break;
    }
    lock.unlock();
    run_due_reloads();
    lock.lock();
  }
}

std::size_t ServeServer::run_due_reloads()
{
  std::size_t performed = 0;
  for (const auto& [width, path] : index_paths_) {
    ClassStore* store = router_ != nullptr ? router_->store_for(width) : store_;
    if (store == nullptr) {
      continue;
    }
    const std::array<std::uint64_t, 6> stamp = index_stamp(path);
    auto& last = reload_stamps_[width];
    if (stamp == last) {
      continue;
    }
    try {
      store->reload(path);
      // Stamp what was observed BEFORE the reload: if the primary wrote
      // again mid-reload, the next poll sees another change and re-reloads
      // — stale is impossible, double-reload merely cheap.
      last = stamp;
      reloads_.fetch_add(1, std::memory_order_relaxed);
      ++performed;
    } catch (const std::exception& e) {
      // A rename caught halfway or a dlog mid-append can fail validation;
      // the store keeps serving its previous epoch and the next poll
      // retries against the settled files.
      std::cerr << "facet-serve: reload of width " << width << " failed: " << e.what() << "\n";
    }
  }
  return performed;
}

std::size_t ServeServer::run_due_compactions()
{
  std::size_t performed = 0;
  for (const auto& [width, path] : index_paths_) {
    ClassStore* store = router_ != nullptr ? router_->store_for(width) : store_;
    if (store == nullptr) {
      continue;
    }
    // Trigger probes read the published tier snapshot without entering the
    // store gate.
    const bool due = (options_.compact_after_runs != 0 &&
                      store->num_delta_segments() >= options_.compact_after_runs) ||
                     (options_.compact_after_bytes != 0 &&
                      ClassStore::delta_log_size(ClassStore::delta_log_path(path)) >=
                          options_.compact_after_bytes);
    if (!due) {
      continue;
    }
    try {
      compact_one(width, *store, path);
      ++performed;
    } catch (const std::exception& e) {
      // A failed compaction leaves the store serving its old tiers — log
      // and retry on the next poll rather than dying.
      std::cerr << "facet-serve: compaction of width " << width << " failed: " << e.what()
                << "\n";
    }
  }
  return performed;
}

void ServeServer::compact_one(int width, ClassStore& store, const std::string& path)
{
  const std::string dlog = ClassStore::delta_log_path(path);
  const std::uint64_t t_start = obs::now_ticks();
  // Phase 1 (cheap): fold the memtable into a sealed run (serialized inside
  // the store's gate) and pin the immutable tiers (no gate entered).
  const std::size_t flushed = store.flush_delta(dlog);
  const CompactionSnapshot snapshot = store.compaction_snapshot();
  if (snapshot.deltas.empty()) {
    return;
  }
  const std::uint64_t dlog_bytes = ClassStore::delta_log_size(dlog);
  std::size_t delta_records = 0;
  for (const auto& run : snapshot.deltas) {
    delta_records += run->size();
  }
  const std::uint64_t t_flushed = obs::now_ticks();

  // Phase 2 (no gate held): merge and write the fresh base while readers
  // and appenders keep going.
  std::vector<StoreRecord> merged = ClassStore::merge_compaction_snapshot(snapshot);
  const std::uint64_t t_merged = obs::now_ticks();
  const std::string tmp = path + ".cpt";
  ClassStore::write_compacted(tmp, snapshot, merged);
  const std::uint64_t t_written = obs::now_ticks();

  // Phase 3 (cheap): swap the new base in through the store's gate. Runs
  // flushed since the snapshot survive; only this compactor thread ever
  // swaps the base, so the snapshot-prefix validation cannot fail.
  store.adopt_compacted(path, tmp, snapshot, std::move(merged));
  const std::uint64_t t_done = obs::now_ticks();

  compaction_histogram("flush").record_ns(obs::ticks_to_ns(t_flushed - t_start));
  compaction_histogram("merge").record_ns(obs::ticks_to_ns(t_merged - t_flushed));
  compaction_histogram("write").record_ns(obs::ticks_to_ns(t_written - t_merged));
  compaction_histogram("adopt").record_ns(obs::ticks_to_ns(t_done - t_written));
  const std::uint64_t total_ns = obs::ticks_to_ns(t_done - t_start);
  compaction_histogram("total").record_ns(total_ns);

  ++stats_.compactions;
  stats_.compacted_runs += snapshot.deltas.size();
  stats_.compacted_records += delta_records;
  stats_.compacted_bytes += dlog_bytes;
  stats_.last_compaction_ms.store(total_ns / 1'000'000, std::memory_order_relaxed);
  stats_.flushed_records += flushed;
  const std::lock_guard<std::mutex> log_lock{compaction_log_mutex_};
  compaction_log_.push_back(
      CompactionEvent{width, snapshot.deltas.size(), delta_records, dlog_bytes, total_ns / 1'000'000});
}

#else  // !FACET_HAS_SOCKETS

ServeServer::~ServeServer() = default;

void ServeServer::start()
{
  throw NetError{"sockets are not supported on this platform"};
}

void ServeServer::wait()
{
  throw NetError{"sockets are not supported on this platform"};
}

void ServeServer::request_shutdown() noexcept {}

void ServeServer::accept_loop() {}
void ServeServer::on_connection_closed(std::uint64_t) noexcept {}
void ServeServer::compactor_loop() {}
std::size_t ServeServer::run_due_compactions()
{
  return 0;
}
void ServeServer::reload_poll_loop() {}
std::size_t ServeServer::run_due_reloads()
{
  return 0;
}
void ServeServer::compact_one(int, ClassStore&, const std::string&) {}
void ServeServer::final_flush() {}

#endif

}  // namespace facet
