#include "facet/store/serve.hpp"

#include <sstream>
#include <string>
#include <vector>

#include "facet/obs/registry.hpp"

namespace facet {

ServeAggregateSnapshot ServeAggregateStats::snapshot() const noexcept
{
  ServeAggregateSnapshot s;
  s.connections_active = connections_active.load(std::memory_order_relaxed);
  s.connections_total = connections_total.load(std::memory_order_relaxed);
  s.requests = requests.load(std::memory_order_relaxed);
  s.lookups = lookups.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits.load(std::memory_order_relaxed);
  s.memo_hits = memo_hits.load(std::memory_order_relaxed);
  s.table_hits = table_hits.load(std::memory_order_relaxed);
  s.index_hits = index_hits.load(std::memory_order_relaxed);
  s.live = live.load(std::memory_order_relaxed);
  s.errors = errors.load(std::memory_order_relaxed);
  s.flushed_records = flushed_records.load(std::memory_order_relaxed);
  s.compactions = compactions.load(std::memory_order_relaxed);
  s.compacted_runs = compacted_runs.load(std::memory_order_relaxed);
  s.compacted_records = compacted_records.load(std::memory_order_relaxed);
  s.compacted_bytes = compacted_bytes.load(std::memory_order_relaxed);
  s.last_compaction_ms = last_compaction_ms.load(std::memory_order_relaxed);
  for (std::size_t n = 0; n < s.width.size(); ++n) {
    s.width[n].lookups = width[n].lookups.load(std::memory_order_relaxed);
    s.width[n].cache_hits = width[n].cache_hits.load(std::memory_order_relaxed);
    s.width[n].memo_hits = width[n].memo_hits.load(std::memory_order_relaxed);
    s.width[n].table_hits = width[n].table_hits.load(std::memory_order_relaxed);
    s.width[n].index_hits = width[n].index_hits.load(std::memory_order_relaxed);
    s.width[n].live = width[n].live.load(std::memory_order_relaxed);
    s.width[n].appended = width[n].appended.load(std::memory_order_relaxed);
  }
  return s;
}

namespace {

/// Bumps the per-source counter of any counter block exposing
/// cache_hits/memo_hits/index_hits/live atomics (ServeCounters,
/// ServeWidthCounters).
template <typename Counters>
void count_source(Counters& stats, LookupSource source)
{
  switch (source) {
    case LookupSource::kHotCache:
      stats.cache_hits.fetch_add(1, std::memory_order_relaxed);
      break;
    case LookupSource::kMemo:
      stats.memo_hits.fetch_add(1, std::memory_order_relaxed);
      break;
    case LookupSource::kTable:
      stats.table_hits.fetch_add(1, std::memory_order_relaxed);
      break;
    case LookupSource::kIndex:
      stats.index_hits.fetch_add(1, std::memory_order_relaxed);
      break;
    case LookupSource::kLive:
      stats.live.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

/// Microseconds with one decimal, for the stats p50/p99 columns (sub-us
/// request latencies must not flatten to 0).
[[nodiscard]] std::string format_us(double ns)
{
  std::ostringstream s;
  s.setf(std::ios::fixed);
  s.precision(1);
  s << ns / 1000.0;
  return s.str();
}

}  // namespace

obs::LatencyHistogram& serve_frame_latency(const char* verb)
{
  return obs::MetricRegistry::global().histogram(
      "facet_serve_frame_latency", obs::label("proto", "v2") + "," + obs::label("verb", verb));
}

ServeDispatcher::ServeDispatcher(ClassStore* store, StoreRouter* router,
                                 const ServeOptions& options)
    : store_{store}, router_{router}, options_{options}
{
  if (options_.aggregate == nullptr) {
    // A standalone session is its own aggregate, so `stats` always answers
    // something meaningful.
    local_aggregate_.connections_active.store(1);
    local_aggregate_.connections_total.store(1);
    options_.aggregate = &local_aggregate_;
  }
}

ClassStore* ServeDispatcher::store_for_width(int width) noexcept
{
  if (width < 0 || width > kMaxVars) {
    return nullptr;
  }
  if (router_ != nullptr) {
    return router_->store_for(width);
  }
  return store_->num_vars() == width ? store_ : nullptr;
}

std::optional<StoreLookupResult> ServeDispatcher::lookup_binary(ClassStore& store,
                                                                const TruthTable& query,
                                                                bool append)
{
  StoreLookupResult result;
  if (!append || options_.readonly) {
    // Per-request readonly: the pure gate-free read path, no live
    // classification — a protocol v2 `lookup` can never mutate the store.
    const auto hit = store.lookup(query);
    if (!hit.has_value()) {
      return std::nullopt;
    }
    result = *hit;
  } else {
    result = store.lookup_or_classify(query, /*append_on_miss=*/true);
  }
  count_source(stats_, result.source);
  stats_.lookups.fetch_add(1, std::memory_order_relaxed);
  count_width(store.num_vars(), result, append && !options_.readonly);
  return result;
}

/// Bumps the aggregate's per-width row for one answered lookup (the
/// `stats` width rows). Direct relaxed increments — no sync step.
/// `append_policy` is the effective per-request append policy: a live
/// answer under it is exactly an appended record.
void ServeDispatcher::count_width(int width, const StoreLookupResult& result, bool append_policy)
{
  if (width < 0 || width > kMaxVars) {
    return;
  }
  ServeWidthCounters& row = options_.aggregate->width[static_cast<std::size_t>(width)];
  row.lookups.fetch_add(1, std::memory_order_relaxed);
  count_source(row, result.source);
  if (result.source == LookupSource::kLive && append_policy) {
    row.appended.fetch_add(1, std::memory_order_relaxed);
  }
}

/// The widths this session serves, ascending — the `stats` rows.
std::vector<int> ServeDispatcher::served_widths() const
{
  return router_ != nullptr ? router_->widths() : std::vector<int>{store_->num_vars()};
}

std::string ServeDispatcher::stats_all_text()
{
  sync_aggregate();  // make this session's own numbers visible
  const ServeAggregateSnapshot agg = options_.aggregate->snapshot();
  const std::vector<int> widths = served_widths();
  // Process-wide request-latency quantiles over the lookup and append
  // frames (the telemetry histograms the `metrics` verb also exposes).
  // `widths=` must stay the LAST field: clients key row-count parsing off
  // it.
  static obs::LatencyHistogram& lookup_latency = serve_frame_latency("lookup");
  static obs::LatencyHistogram& append_latency = serve_frame_latency("append");
  obs::HistogramSnapshot requests = lookup_latency.snapshot();
  requests.merge(append_latency.snapshot());
  std::ostringstream out;
  out << "ok connections=" << agg.connections_active << " sessions=" << agg.connections_total
      << " requests=" << agg.requests << " lookups=" << agg.lookups
      << " cache_hits=" << agg.cache_hits << " memo_hits=" << agg.memo_hits
      << " table_hits=" << agg.table_hits << " index_hits=" << agg.index_hits
      << " live=" << agg.live << " errors=" << agg.errors
      << " flushed=" << agg.flushed_records << " compactions=" << agg.compactions
      << " compacted_runs=" << agg.compacted_runs
      << " compacted_records=" << agg.compacted_records
      << " compact_bytes=" << agg.compacted_bytes
      << " last_compact_ms=" << agg.last_compaction_ms
      << " p50_us=" << format_us(requests.quantile_ns(0.5))
      << " p99_us=" << format_us(requests.quantile_ns(0.99)) << " widths=" << widths.size()
      << "\n";
  // One row per served store; `widths=<count>` above tells clients how
  // many rows to read.
  for (const int width : widths) {
    const ServeWidthStats& row = agg.width[static_cast<std::size_t>(width)];
    out << "ok width=" << width << " lookups=" << row.lookups
        << " cache_hits=" << row.cache_hits << " memo_hits=" << row.memo_hits
        << " table_hits=" << row.table_hits << " index_hits=" << row.index_hits
        << " live=" << row.live << " appended=" << row.appended << "\n";
  }
  return out.str();
}

/// The `metrics` verb: refresh the state-derived gauges from the served
/// stores, then emit the whole registry as Prometheus text.
std::string ServeDispatcher::metrics_text()
{
  refresh_store_gauges();
  std::ostringstream body;
  obs::MetricRegistry::global().render_prometheus(body);
  return body.str();
}

/// Gauges derived from live store state (delta runs, memo/cache entries)
/// are refreshed at scrape time instead of on every mutation — the hot
/// paths stay untouched and the scrape is always current.
void ServeDispatcher::refresh_store_gauges()
{
  auto& registry = obs::MetricRegistry::global();
  for (const int width : served_widths()) {
    ClassStore* store = router_ != nullptr ? router_->store_for(width) : store_;
    if (store == nullptr) {
      continue;
    }
    const std::string width_label = obs::label("width", width);
    registry.gauge("facet_store_delta_runs", width_label)
        .set(static_cast<std::int64_t>(store->num_delta_segments()));
    registry.gauge("facet_store_memo_entries", width_label)
        .set(static_cast<std::int64_t>(store->memo_entries()));
    registry.gauge("facet_store_hot_cache_entries", width_label)
        .set(static_cast<std::int64_t>(store->hot_cache_stats().entries));
  }
}

/// Seals the session's appends into the configured delta log(s) — once;
/// both the quit path and the end-of-input path land here, so appends
/// survive a client that drops the connection without a clean quit.
/// flush_delta serializes inside each store's own gate, and stores of
/// different widths flush independently.
std::size_t ServeDispatcher::flush_on_exit()
{
  if (exit_flushed_) {
    return 0;
  }
  exit_flushed_ = true;
  std::size_t flushed = 0;
  if (router_ != nullptr) {
    for (const auto& [width, dlog_path] : options_.dlog_paths) {
      if (ClassStore* store = router_->store_for(width)) {
        flushed += store->flush_delta(dlog_path);
      }
    }
  } else if (!options_.dlog_path.empty()) {
    flushed += store_->flush_delta(options_.dlog_path);
  }
  stats_.flushed.fetch_add(flushed, std::memory_order_relaxed);
  return flushed;
}

void ServeDispatcher::count_request() noexcept
{
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
}

void ServeDispatcher::count_error() noexcept
{
  stats_.errors.fetch_add(1, std::memory_order_relaxed);
}

/// Adds this session's not-yet-reported counter increments to the shared
/// aggregate (atomic, no lock), so `stats` on any connection sees
/// every session's traffic.
void ServeDispatcher::sync_aggregate()
{
  const ServeStats stats = stats_.snapshot();
  ServeAggregateStats& agg = *options_.aggregate;
  agg.requests += stats.requests - synced_.requests;
  agg.lookups += stats.lookups - synced_.lookups;
  agg.cache_hits += stats.cache_hits - synced_.cache_hits;
  agg.memo_hits += stats.memo_hits - synced_.memo_hits;
  agg.table_hits += stats.table_hits - synced_.table_hits;
  agg.index_hits += stats.index_hits - synced_.index_hits;
  agg.live += stats.live - synced_.live;
  agg.errors += stats.errors - synced_.errors;
  agg.flushed_records += stats.flushed - synced_.flushed;
  synced_ = stats;
}

}  // namespace facet
