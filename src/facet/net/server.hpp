/// \file server.hpp
/// \brief Socket front end for the serve protocol: N concurrent connections
///        sharing one ClassStore / StoreRouter, plus background compaction.
///
/// `facet_cli serve --listen HOST:PORT [--unix PATH]` runs a ServeServer:
/// a TCP and/or Unix-domain listener whose accepted connections speak the
/// protocol v2 binary frames of net/frame.hpp against ONE shared store.
/// Connections are owned by the Reactor (net/reactor.hpp): `--workers`
/// epoll loops (default hardware_concurrency), each running its
/// connections' frames to completion on its own thread. An idle connection
/// costs one epoll registration instead of a thread, so thousands of
/// mostly-idle clients share a few loops. Serving needs Linux (epoll). The
/// server carries NO store lock of its own —
/// synchronization lives inside the store layer (class_store.hpp,
/// store_router.hpp):
///
///   * lookups, hot-cache probes and index searches run gate-free against
///     the store's atomically-published tier snapshot — reader connections
///     never block behind a mutator;
///   * mutations — `append` frames (live classification + memtable append),
///     session-exit delta flushes, compaction swaps — serialize inside each store's own gate,
///     striped per width under a router: traffic on one width never stalls
///     another.
///
/// What remains here is connection lifecycle (accept, capacity, idle
/// timeout, drain) and the background compactor the ROADMAP asked for: a
/// thread that watches every served store and, when the sealed delta-run
/// count or the `.dlog` size crosses its threshold, folds base + runs into
/// a fresh base segment with ClassStore::compact — the heavy merge and file
/// write run against a pinned snapshot with no gate held, and only the
/// flush before and the swap after enter the store's gate, so live traffic
/// never stalls behind a compaction.
///
/// Shutdown (request_shutdown(), wired to SIGINT/SIGTERM by the CLI) is
/// graceful: stop accepting, wake every in-flight connection (its session
/// flushes appends to the delta log on exit, exactly like `quit`), join the
/// compactor, then run one final flush — a server killed mid-traffic loses
/// zero appended classes.
///
/// `--readonly` drops the mutation paths entirely: `append` frames answer
/// the `readonly` err status, and every connection
/// runs purely on the gate-free read path — the fleet fan-out mode where
/// many replicas serve one warm index.

#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "facet/net/reactor.hpp"
#include "facet/net/socket.hpp"
#include "facet/store/class_store.hpp"
#include "facet/store/serve.hpp"
#include "facet/store/store_router.hpp"

namespace facet {

struct ServeServerOptions {
  /// TCP listen spec ("HOST:PORT", ":PORT", "PORT"); empty = no TCP
  /// listener. Port 0 binds an ephemeral port (tcp_port() reports it).
  std::string listen;
  /// Unix-domain socket path; empty = no Unix listener. At least one of
  /// listen/unix_path must be set.
  std::string unix_path;

  /// Serve reads only (see serve.hpp): `append` frames are refused.
  bool readonly = false;

  /// Connections beyond this answer one `at_capacity` err frame and close.
  std::size_t max_connections = 64;

  /// Disconnect a connection that sends nothing for this long (its session
  /// flushes exactly like a clean exit — the reactor's timer wheel retires
  /// it), so idle clients cannot pin connection slots forever. zero() = no
  /// timeout.
  std::chrono::milliseconds idle_timeout{0};

  /// Event loops (one thread each) running the connections;
  /// 0 = hardware_concurrency.
  std::size_t workers = 0;

  /// Sessions log any request frame slower than this many microseconds to
  /// stderr (`--slow-us`; 0 disables — see ServeOptions::slow_request_us).
  std::uint64_t slow_request_us = 0;

  /// Readonly replicas only: re-stat every served index (base + delta log)
  /// at this interval and ClassStore::reload any store whose files changed
  /// — the other half of the compaction handshake. ClassStore::compact
  /// lands the new base by rename, so a replica sees a new inode/mtime and
  /// swaps its tiers to the fresh epoch without dropping in-flight requests.
  /// zero() (default) disables polling; ignored on writable servers, which
  /// own their files.
  std::chrono::milliseconds reload_poll{0};

  /// Compact a store once it holds >= this many sealed delta runs
  /// (0 disables the run-count trigger).
  std::size_t compact_after_runs = 0;
  /// Compact a store once its `.dlog` reaches this many bytes
  /// (0 disables the size trigger).
  std::uint64_t compact_after_bytes = 0;
  /// How often the compactor re-checks the triggers.
  std::chrono::milliseconds compact_poll{200};
};

/// One compaction the server performed (surfaced for logs and tests).
struct CompactionEvent {
  int width = 0;
  std::size_t runs = 0;          ///< delta runs folded into the new base
  std::size_t records = 0;       ///< records those runs held
  std::uint64_t bytes = 0;       ///< delta-log bytes folded away
  std::uint64_t duration_ms = 0; ///< flush-through-swap wall time
};

class ServeServer {
 public:
  /// Serves one single-width store.
  /// `index_path` locates the base segment (its delta log rides alongside).
  ServeServer(ClassStore& store, std::string index_path, ServeServerOptions options);

  /// Serves a router (mixed widths, routed by each frame's width byte).
  /// `index_paths` maps each routed width to its base-segment path.
  ServeServer(StoreRouter& router, std::map<int, std::string> index_paths,
              ServeServerOptions options);

  ~ServeServer();
  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Binds the listeners and launches the accept and compactor threads.
  /// Throws NetError when no endpoint is configured or a bind fails.
  void start();

  /// Blocks until a shutdown request, then drains: stops accepting, wakes
  /// every in-flight connection, joins the event loops, runs the final
  /// flush.
  void wait();

  /// start() + wait().
  void run()
  {
    start();
    wait();
  }

  /// Triggers shutdown. Async-signal-safe (atomic flag + self-pipe write),
  /// so the CLI calls this straight from its SIGINT/SIGTERM handler.
  void request_shutdown() noexcept;

  /// The TCP port actually bound (after start(); resolves ephemeral-port
  /// requests for tests and logs). 0 when no TCP listener is configured.
  [[nodiscard]] std::uint16_t tcp_port() const noexcept { return tcp_port_; }

  /// Aggregated protocol + compaction counters (the `stats` numbers).
  [[nodiscard]] const ServeAggregateStats& stats() const noexcept { return stats_; }

  /// Compactions performed so far (copy; internally synchronized).
  [[nodiscard]] std::vector<CompactionEvent> compaction_log() const;

  /// Successful store reloads performed by the readonly reload poll.
  [[nodiscard]] std::uint64_t reloads() const noexcept
  {
    return reloads_.load(std::memory_order_relaxed);
  }

 private:
  friend class ServeConnection;

  void accept_loop();
  [[nodiscard]] ServeOptions session_options();
  /// ServeConnection::on_close callback: books the finished connection
  /// into the stats/gauges and nudges the compactor. Safe from any loop.
  void on_connection_closed(std::uint64_t accepted_ticks) noexcept;

  void compactor_loop();
  /// One trigger sweep over every served store; returns compactions done.
  std::size_t run_due_compactions();
  void compact_one(int width, ClassStore& store, const std::string& path);

  void reload_poll_loop();
  /// One stat sweep over every served index; reloads stores whose base or
  /// delta log changed on disk. Returns reloads performed.
  std::size_t run_due_reloads();

  void final_flush();

  // Exactly one of store_/router_ is non-null.
  ClassStore* store_ = nullptr;
  StoreRouter* router_ = nullptr;
  /// width -> base path for every served store (single store: one entry).
  std::map<int, std::string> index_paths_;
  ServeServerOptions options_;

  ServeAggregateStats stats_;

  Socket tcp_listener_;
  Socket unix_listener_;
  std::uint16_t tcp_port_ = 0;
  int wake_pipe_[2] = {-1, -1};

  std::thread accept_thread_;
  std::thread compactor_thread_;
  std::thread reload_thread_;
  /// Owns every accepted connection; created in start() (its loop count
  /// depends on the resolved options).
  std::unique_ptr<Reactor> reactor_;

  std::mutex compactor_mutex_;
  std::condition_variable compactor_cv_;
  mutable std::mutex compaction_log_mutex_;
  std::vector<CompactionEvent> compaction_log_;

  std::mutex reload_mutex_;
  std::condition_variable reload_cv_;
  /// width -> (inode, mtime, size) of the base file and its delta log, as
  /// last reloaded. Touched only by start() and the reload thread.
  std::map<int, std::array<std::uint64_t, 6>> reload_stamps_;
  std::atomic<std::uint64_t> reloads_{0};

  std::atomic<bool> stopping_{false};
  bool started_ = false;
  bool drained_ = false;
};

}  // namespace facet
