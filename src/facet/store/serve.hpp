/// \file serve.hpp
/// \brief The transport-independent core of a serve session: verb semantics,
///        the process-wide counter aggregate.
///
/// `facet_cli serve --listen/--unix` (net/server.hpp) runs one
/// ServeDispatcher per accepted connection behind a protocol v2
/// FrameSession (net/frame.hpp), so other processes (a mapper, a test
/// harness, a fleet of remote clients) drive a store without re-loading the
/// index per query. The dispatcher answers the v2 verbs:
///
///   lookup   pure gate-free read (lookup_binary with append = false): a
///            function the store has never seen is a miss, never classified
///   append   the store's full miss path: novel classes classify live and
///            append (refused on a readonly process)
///   stats    stats_all_text — the aggregate line and per-width rows:
///
///              ok connections=<active> sessions=<total> requests=<q>
///                 lookups=<k> cache_hits=<h> memo_hits=<m> table_hits=<t>
///                 index_hits=<i> live=<l> errors=<e> flushed=<f>
///                 compactions=<c> compacted_runs=<r> compacted_records=<k>
///                 compact_bytes=<b> last_compact_ms=<t> p50_us=<p>
///                 p99_us=<q> widths=<w>
///              ok width=<n> lookups=<k> cache_hits=<h> memo_hits=<m>
///                 table_hits=<t> index_hits=<i> live=<l> appended=<a>
///
///            (one width row per served store, ascending; `widths=` stays
///            the LAST field of the aggregate line. compact_bytes and
///            last_compact_ms describe the background compactor; p50/p99
///            are process-wide lookup+append frame latencies from the
///            facet_serve_frame_latency{proto="v2"} histograms.)
///   metrics  metrics_text — the Prometheus exposition of the whole
///            registry (obs/registry.hpp), store gauges refreshed
///   quit     flush_on_exit: appends are sealed into the delta log BEFORE
///            the response, so a client that reads it knows they are
///            durable
///
/// A session that ends without `quit` (EOF, idle expiry, server drain)
/// flushes its appends exactly like `quit`, so a dropped connection never
/// silently loses appended classes.
///
/// ## Concurrency
///
/// Sessions carry no locks: the store layer synchronizes itself
/// (class_store.hpp — snapshot-epoch reads through the per-store StoreGate,
/// a gated miss/append path, per-width striping through StoreRouter), so N
/// concurrent sessions call plain store methods and every read proceeds
/// without blocking behind appends, flushes or compaction swaps on ANY
/// width. A query resolves through the store's own tier stack (NPN4 norm
/// table for width <= 4, hot cache, semiclass memo, index, live) in the
/// session thread; exact canonicalization — the expensive step of a
/// genuinely novel query — runs before any store gate is involved, and
/// table/memo hits skip it entirely.
///
/// Counting goes straight to the server's aggregate (ServeAggregateStats,
/// atomics): one request add per frame, and one add per answering source
/// (plus appended) into the frame's width row, once per frame — a lookup
/// costs no counter write of its own. `stats` snapshots the aggregate with
/// relaxed loads and derives the lookup totals from the width rows.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "facet/store/class_store.hpp"
#include "facet/store/store_router.hpp"

namespace facet {

namespace obs {
class LatencyHistogram;
}  // namespace obs

/// Answer counts indexed by LookupSource.
using SourceCounts = std::array<std::uint64_t, kNumLookupSources>;

/// Per-width traffic counters of the aggregate: which routed stores run hot.
/// One count per LookupSource, indexed by the enum (cache, memo, table,
/// index, live — the `stats` field order), plus the records appended live.
/// A row's lookups are the sum of its source counts: only answered operands
/// are counted.
struct ServeWidthCounters {
  std::array<std::atomic<std::uint64_t>, kNumLookupSources> source{};
  std::atomic<std::uint64_t> appended{0};
};

/// Relaxed-load snapshot of one ServeWidthCounters row.
struct ServeWidthStats {
  SourceCounts source{};
  std::uint64_t appended = 0;

  [[nodiscard]] std::uint64_t lookups() const noexcept;
};

/// Relaxed-load snapshot of the whole aggregate (ServeAggregateStats).
struct ServeAggregateSnapshot {
  std::uint64_t connections_active = 0;
  std::uint64_t connections_total = 0;
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  std::uint64_t flushed_records = 0;
  std::uint64_t compactions = 0;
  std::uint64_t compacted_runs = 0;
  std::uint64_t compacted_records = 0;
  std::uint64_t compacted_bytes = 0;
  std::uint64_t last_compaction_ms = 0;
  std::array<ServeWidthStats, kMaxVars + 1> width{};
  /// Sum of the width rows: the aggregate line's lookups and per-source
  /// totals.
  ServeWidthStats total;
};

/// Process-wide counters shared by every serve session (and the background
/// compactor) of one serving process — the numbers behind `stats`, and the
/// one place a served operand is counted. All fields are atomics: sessions
/// on different connections bump them without coordination.
struct ServeAggregateStats {
  std::atomic<std::uint64_t> connections_active{0};
  std::atomic<std::uint64_t> connections_total{0};
  /// Request frames and err responses.
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> errors{0};
  /// Appended records made durable (session-exit and shutdown flushes).
  std::atomic<std::uint64_t> flushed_records{0};
  /// Background-compactor activity (net/server.hpp).
  std::atomic<std::uint64_t> compactions{0};
  std::atomic<std::uint64_t> compacted_runs{0};
  std::atomic<std::uint64_t> compacted_records{0};
  /// Delta-log bytes folded away by compactions.
  std::atomic<std::uint64_t> compacted_bytes{0};
  /// Duration of the most recent compaction (flush through adopt), ms.
  std::atomic<std::uint64_t> last_compaction_ms{0};
  /// Per-width traffic, indexed by function width (0..kMaxVars).
  std::array<ServeWidthCounters, kMaxVars + 1> width{};

  [[nodiscard]] ServeAggregateSnapshot snapshot() const noexcept;
};

struct ServeOptions {
  /// Serve reads only: `append` is refused and appends never happen — the
  /// fleet fan-out mode where many processes share one index read-only.
  bool readonly = false;

  /// When non-empty (single store): the delta-log path appends are flushed
  /// to when the session ends — on `quit` (the response carries the
  /// flushed count) and on EOF. Without it appends only persist if the
  /// caller flushes after the session ends.
  std::string dlog_path;

  /// Router equivalent: width -> delta-log path.
  std::map<int, std::string> dlog_paths;

  /// When set, the session counts into these process-wide counters, and
  /// `stats` reports them. Null = the dispatcher counts into an aggregate
  /// of its own, so `stats` reports the session's own numbers. (Sessions
  /// sharing a store need nothing else: the store gates its own mutations
  /// — class_store.hpp.)
  ServeAggregateStats* aggregate = nullptr;

  /// When > 0: any request frame slower than this many microseconds logs
  /// one structured line — `facet-serve: slow verb=<v> width=<n>
  /// src=<tier> us=<t>` — to `slow_log` (stderr when null). The width is
  /// the frame's operand width and src the tier of its last record ("-"
  /// for verbs without operands), so a slow batch names the store and tier
  /// that hurt.
  std::uint64_t slow_request_us = 0;
  /// Sink for slow-request lines; null = std::cerr. Tests inject a capture
  /// stream here.
  std::ostream* slow_log = nullptr;
};

/// The transport-independent core of one serve session: verb semantics
/// (lookup/append policy, width routing, stats/metrics rendering, exit
/// flush, counting into the aggregate) behind the protocol v2 frame
/// session (net/frame.hpp). Exactly one of store/router is non-null.
///
/// The dispatcher holds no lock, ever: every store access synchronizes
/// inside ClassStore/StoreRouter (snapshot-epoch reads, a per-store
/// mutation gate — class_store.hpp). Queries resolve through the store's
/// own tier stack (NPN4 norm table for width <= 4, hot cache, semiclass
/// memo, index, live); exact canonicalization — the expensive step of a
/// genuinely novel wide query — runs in the calling thread before any
/// store gate.
class ServeDispatcher {
 public:
  ServeDispatcher(ClassStore* store, StoreRouter* router, const ServeOptions& options);

  /// The store serving `width`, honoring routing: under a router the routed
  /// store (nullptr when the width is unrouted), standalone the single
  /// store (nullptr on a width mismatch).
  [[nodiscard]] ClassStore* store_for_width(int width) noexcept;

  /// Resolves one parsed query with a per-request append policy: `append`
  /// false is a pure gate-free read (a miss answers nullopt and never
  /// classifies or appends — protocol v2 `lookup`); `append` true runs the
  /// store's full miss path and persists novel classes (protocol v2
  /// `append`; refused by the caller under process readonly). Counts
  /// nothing: the caller hands a frame's answers to count_answers once.
  [[nodiscard]] std::optional<StoreLookupResult> lookup_binary(ClassStore& store,
                                                               const TruthTable& query,
                                                               bool append) const;

  /// The session's options (the frame session reads the readonly policy and
  /// the slow-request threshold and sink from here).
  [[nodiscard]] const ServeOptions& options() const noexcept { return options_; }

  /// The `stats` payload: aggregate line + per-width rows.
  [[nodiscard]] std::string stats_all_text();

  /// The `metrics` payload: the Prometheus exposition of the whole
  /// registry, store gauges refreshed.
  [[nodiscard]] std::string metrics_text();

  /// Seals this session's appends into the configured delta log(s) — once;
  /// quit, EOF and connection-drop paths all land here, so appends survive
  /// a client that vanishes without a clean quit. Idempotent.
  std::size_t flush_on_exit();

  /// Bumps the aggregate's request/error counters (frame front ends count
  /// one request per frame; malformed frames also count one error).
  void count_request() noexcept;
  void count_error() noexcept;

  /// Adds one batch frame's answered operands to the aggregate's `width`
  /// row: `answered` counts them per LookupSource. `append` is the frame's
  /// verb; under it (and not readonly) every live answer is an appended
  /// record.
  void count_answers(int width, const SourceCounts& answered, bool append) noexcept;

 private:
  [[nodiscard]] std::vector<int> served_widths() const;
  void refresh_store_gauges();

  ClassStore* store_;
  StoreRouter* router_;
  ServeOptions options_;
  ServeAggregateStats local_aggregate_;
  bool exit_flushed_ = false;
};

/// The `facet_serve_frame_latency{proto="v2",verb=<verb>}` series: one
/// request frame through FrameSession::consume. `stats` reads its
/// lookup/append quantiles; the frame session records into it.
[[nodiscard]] obs::LatencyHistogram& serve_frame_latency(const char* verb);

}  // namespace facet
