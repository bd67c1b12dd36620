#include "facet/store/serve.hpp"

#include <array>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "facet/obs/registry.hpp"

namespace facet {

std::uint64_t ServeWidthStats::lookups() const noexcept
{
  std::uint64_t sum = 0;
  for (const std::uint64_t count : source) {
    sum += count;
  }
  return sum;
}

ServeAggregateSnapshot ServeAggregateStats::snapshot() const noexcept
{
  ServeAggregateSnapshot s;
  s.connections_active = connections_active.load(std::memory_order_relaxed);
  s.connections_total = connections_total.load(std::memory_order_relaxed);
  s.requests = requests.load(std::memory_order_relaxed);
  s.errors = errors.load(std::memory_order_relaxed);
  s.flushed_records = flushed_records.load(std::memory_order_relaxed);
  s.compactions = compactions.load(std::memory_order_relaxed);
  s.compacted_runs = compacted_runs.load(std::memory_order_relaxed);
  s.compacted_records = compacted_records.load(std::memory_order_relaxed);
  s.compacted_bytes = compacted_bytes.load(std::memory_order_relaxed);
  s.last_compaction_ms = last_compaction_ms.load(std::memory_order_relaxed);
  for (std::size_t n = 0; n < s.width.size(); ++n) {
    ServeWidthStats& row = s.width[n];
    for (std::size_t src = 0; src < kNumLookupSources; ++src) {
      row.source[src] = width[n].source[src].load(std::memory_order_relaxed);
      s.total.source[src] += row.source[src];
    }
    row.appended = width[n].appended.load(std::memory_order_relaxed);
    s.total.appended += row.appended;
  }
  return s;
}

namespace {

/// `stats` field names of the per-source counts, indexed by LookupSource.
constexpr std::array<const char*, kNumLookupSources> kSourceFields{
    "cache_hits", "memo_hits", "table_hits", "index_hits", "live"};

/// Writes ` lookups=<k> cache_hits=<h> ... live=<l>` for one row.
void write_lookup_fields(std::ostream& out, const ServeWidthStats& row)
{
  out << " lookups=" << row.lookups();
  for (std::size_t src = 0; src < kNumLookupSources; ++src) {
    out << ' ' << kSourceFields[src] << '=' << row.source[src];
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
                                                                bool append) const
{
  if (!append || options_.readonly) {
    // Per-request readonly: the pure gate-free read path, no live
    // classification — a protocol v2 `lookup` can never mutate the store.
    return store.lookup(query);
  }
  return store.lookup_or_classify(query, /*append_on_miss=*/true);
}

/// Adds one frame's answers to the aggregate's width row (the `stats` width
/// rows, whose sums are the aggregate totals): one relaxed add per source
/// that answered, plus the appended records.
void ServeDispatcher::count_answers(int width, const SourceCounts& answered, bool append) noexcept
{
  if (width < 0 || width > kMaxVars) {
    return;
  }
  ServeWidthCounters& row = options_.aggregate->width[static_cast<std::size_t>(width)];
  for (std::size_t src = 0; src < kNumLookupSources; ++src) {
    if (answered[src] != 0) {
      row.source[src].fetch_add(answered[src], std::memory_order_relaxed);
    }
  }
  const std::uint64_t live = answered[static_cast<std::size_t>(LookupSource::kLive)];
  if (append && !options_.readonly && live != 0) {
    row.appended.fetch_add(live, std::memory_order_relaxed);
  }
}

/// The widths this session serves, ascending — the `stats` rows.
std::vector<int> ServeDispatcher::served_widths() const
{
  return router_ != nullptr ? router_->widths() : std::vector<int>{store_->num_vars()};
}

std::string ServeDispatcher::stats_all_text()
{
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
      << " requests=" << agg.requests;
  write_lookup_fields(out, agg.total);
  out << " errors=" << agg.errors
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
    out << "ok width=" << width;
    write_lookup_fields(out, row);
    out << " appended=" << row.appended << "\n";
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
  options_.aggregate->flushed_records.fetch_add(flushed, std::memory_order_relaxed);
  return flushed;
}

void ServeDispatcher::count_request() noexcept
{
  options_.aggregate->requests.fetch_add(1, std::memory_order_relaxed);
}

void ServeDispatcher::count_error() noexcept
{
  options_.aggregate->errors.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace facet
