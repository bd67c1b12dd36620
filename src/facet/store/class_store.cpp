#include "facet/store/class_store.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "facet/npn/exact_canon.hpp"
#include "facet/npn/npn4_table.hpp"
#include "facet/obs/clock.hpp"
#include "facet/obs/registry.hpp"
#include "facet/store/file_writer.hpp"
#include "facet/util/hash.hpp"

namespace facet {

namespace {

/// The memo's probation window: after this many probes (empty-bucket misses
/// included — the key derivation they wasted is the cost being measured), a
/// memo that scored fewer than kMemoProbationMinHits hits (~1.5%) is
/// bypassed for the life of the store. Append-heavy workloads with little
/// semiclass locality (wide widths, uniform-random functions) otherwise pay
/// key derivation + a mutex hop on every miss for nothing — the regression
/// BENCH_store_misspath caught at n=6.
constexpr std::uint64_t kMemoProbationProbes = 1024;
constexpr std::uint64_t kMemoProbationMinHits = 16;

/// `facet_compaction_duration{phase=...}`: "total" spans flush through
/// adopt; the phases separate the gate-free merge and write from the gated
/// flush and swap.
obs::LatencyHistogram& compaction_histogram(const char* phase)
{
  return obs::MetricRegistry::global().histogram("facet_compaction_duration",
                                                 obs::label("phase", phase));
}

/// Records the ticks since `start` under `phase`; returns now.
std::uint64_t record_phase(const char* phase, std::uint64_t start)
{
  const std::uint64_t now = obs::now_ticks();
  compaction_histogram(phase).record_ns(obs::ticks_to_ns(now - start));
  return now;
}

std::vector<const StoreRecord*> pointers_to(const std::vector<StoreRecord>& records)
{
  std::vector<const StoreRecord*> pointers;
  pointers.reserve(records.size());
  for (const auto& record : records) {
    pointers.push_back(&record);
  }
  return pointers;
}

/// The base, then the delta runs oldest first.
std::vector<const Segment*> segments_of(const TierSnapshot& tiers)
{
  std::vector<const Segment*> segments{tiers.base.get()};
  for (const auto& delta : tiers.deltas) {
    segments.push_back(delta.get());
  }
  return segments;
}

/// Merges sorted tiers, oldest first, into one record vector sorted by
/// canonical form. Where tiers share a canonical form the newest tier's
/// record wins — the order lookups shadow in.
std::vector<StoreRecord> merge_tiers(const std::vector<const Segment*>& tiers)
{
  struct Cursor {
    const Segment* tier;
    std::size_t next;
    StoreRecord head;
  };
  std::vector<Cursor> cursors;
  std::size_t total = 0;
  for (const Segment* tier : tiers) {
    total += tier->size();
    if (tier->size() > 0) {
      cursors.push_back({tier, 1, tier->record_at(0)});
    }
  }
  std::vector<StoreRecord> merged;
  merged.reserve(total);
  while (!cursors.empty()) {
    // The smallest head; among equal heads, the newest tier's.
    std::size_t winner = 0;
    for (std::size_t i = 1; i < cursors.size(); ++i) {
      if (!(cursors[winner].head.canonical < cursors[i].head.canonical)) {
        winner = i;
      }
    }
    merged.push_back(std::move(cursors[winner].head));
    // Step every cursor whose head the winner shadows, the winner included.
    for (std::size_t i = cursors.size(); i-- > 0;) {
      Cursor& cursor = cursors[i];
      if (i != winner && cursor.head.canonical != merged.back().canonical) {
        continue;
      }
      if (cursor.next < cursor.tier->size()) {
        cursor.head = cursor.tier->record_at(cursor.next++);
      } else {
        cursors.erase(cursors.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
  }
  return merged;
}

}  // namespace

const char* lookup_source_name(LookupSource source) noexcept
{
  switch (source) {
    case LookupSource::kHotCache:
      return "cache";
    case LookupSource::kMemo:
      return "memo";
    case LookupSource::kTable:
      return "table";
    case LookupSource::kIndex:
      return "index";
    case LookupSource::kLive:
      return "live";
  }
  return "unknown";
}

ClassStore::ClassStore(int num_vars, ClassStoreOptions options)
    : num_vars_{num_vars},
      options_{options},
      gate_{std::make_unique<StoreGate<TierSnapshot>>(std::make_shared<TierSnapshot>(
          TierSnapshot{std::make_shared<MaterializedSegment>(num_vars, std::vector<StoreRecord>{}),
                       {}}))},
      memtable_{std::make_unique<Memtable>()},
      compaction_mutex_{std::make_unique<std::mutex>()},
      cache_{options.hot_cache_capacity, options.hot_cache_shards}
{
  if (num_vars < 0 || num_vars > kMaxVars) {
    throw std::invalid_argument{"ClassStore: num_vars out of range"};
  }
  if (num_vars <= kNpn4MaxVars) {
    npn4_ = std::make_unique<Npn4Slots>(npn4_num_classes(num_vars));
  } else if (options.semiclass_memo_capacity > 0) {
    memo_ = std::make_unique<SemiclassMemo>(options.semiclass_memo_capacity);
  }
  resolve_metrics();
}

void ClassStore::resolve_metrics()
{
  static constexpr std::array<const char*, 6> kTierNames{"cache", "memo",  "table",
                                                         "index", "live", "miss"};
  auto& registry = obs::MetricRegistry::global();
  const std::string width = obs::label("width", num_vars_);
  for (std::size_t tier = 0; tier < lookup_latency_.size(); ++tier) {
    lookup_latency_[tier] = &registry.histogram(
        "facet_store_lookup_latency", obs::label("tier", kTierNames[tier]) + "," + width);
  }
}

void ClassStore::record_lookup_latency(std::size_t tier, std::uint64_t start_ticks) const noexcept
{
  lookup_latency_[tier]->record_ns(obs::ticks_to_ns(obs::now_ticks() - start_ticks));
}

ClassStore::ClassStore(int num_vars, std::vector<StoreRecord> records, std::uint64_t num_classes,
                       ClassStoreOptions options)
    : ClassStore{num_vars, options}
{
  std::sort(records.begin(), records.end(),
            [](const StoreRecord& a, const StoreRecord& b) { return a.canonical < b.canonical; });
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].canonical.num_vars() != num_vars_ ||
        records[i].representative.num_vars() != num_vars_) {
      throw std::invalid_argument{"ClassStore: record width does not match the store"};
    }
    if (i > 0 && records[i - 1].canonical == records[i].canonical) {
      throw std::invalid_argument{"ClassStore: duplicate canonical form"};
    }
    if (records[i].class_id >= num_classes) {
      throw std::invalid_argument{"ClassStore: record class id exceeds num_classes"};
    }
  }
  reset_tiers({std::make_shared<MaterializedSegment>(num_vars_, std::move(records)), {}});
  next_class_id_.store(num_classes, std::memory_order_relaxed);
  npn4_prefill();
}

ClassStore::ClassStore(TierSnapshot tiers, std::uint64_t num_classes, bool mmap_backed,
                       ClassStoreOptions options)
    : ClassStore{tiers.base->num_vars(), options}
{
  reset_tiers(std::move(tiers));
  mmap_backed_ = mmap_backed;
  next_class_id_.store(num_classes, std::memory_order_relaxed);
  npn4_prefill();
}

ClassStore::ClassStore(ClassStore&& other) noexcept
    : num_vars_{other.num_vars_},
      options_{other.options_},
      gate_{std::move(other.gate_)},
      mmap_backed_{other.mmap_backed_},
      memtable_{std::move(other.memtable_)},
      memo_{std::move(other.memo_)},
      memo_hits_{other.memo_hits_.load(std::memory_order_relaxed)},
      memo_probes_{other.memo_probes_.load(std::memory_order_relaxed)},
      memo_bypassed_{other.memo_bypassed_.load(std::memory_order_relaxed)},
      canonicalizations_{other.canonicalizations_.load(std::memory_order_relaxed)},
      npn4_{std::move(other.npn4_)},
      miss_records_{std::move(other.miss_records_)},
      next_class_id_{other.next_class_id_.load(std::memory_order_relaxed)},
      compactions_{other.compactions_.load(std::memory_order_relaxed)},
      compaction_mutex_{std::move(other.compaction_mutex_)},
      cache_{std::move(other.cache_)}
{
  lookup_latency_ = other.lookup_latency_;
}

ClassStore& ClassStore::operator=(ClassStore&& other) noexcept
{
  num_vars_ = other.num_vars_;
  options_ = other.options_;
  gate_ = std::move(other.gate_);
  mmap_backed_ = other.mmap_backed_;
  memtable_ = std::move(other.memtable_);
  memo_ = std::move(other.memo_);
  memo_hits_.store(other.memo_hits_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  memo_probes_.store(other.memo_probes_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  memo_bypassed_.store(other.memo_bypassed_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  canonicalizations_.store(other.canonicalizations_.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
  npn4_ = std::move(other.npn4_);
  miss_records_ = std::move(other.miss_records_);
  next_class_id_.store(other.next_class_id_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  compactions_.store(other.compactions_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  compaction_mutex_ = std::move(other.compaction_mutex_);
  cache_ = std::move(other.cache_);
  lookup_latency_ = other.lookup_latency_;
  return *this;
}

void ClassStore::reset_tiers(TierSnapshot tiers)
{
  const auto gate = gate_->acquire();
  gate_->publish(gate, std::make_shared<TierSnapshot>(std::move(tiers)));
}

std::size_t ClassStore::num_records() const
{
  const auto tiers = gate_->pin();
  std::size_t total = tiers->base->size();
  for (const auto& delta : tiers->deltas) {
    total += delta->size();
  }
  return total + num_appended();
}

std::size_t ClassStore::num_appended() const
{
  const std::lock_guard<std::mutex> lock{memtable_->mutex};
  return memtable_->records.size();
}

std::size_t ClassStore::num_delta_segments() const
{
  return gate_->pin()->deltas.size();
}

std::size_t ClassStore::num_delta_records() const
{
  const auto tiers = gate_->pin();
  std::size_t total = 0;
  for (const auto& delta : tiers->deltas) {
    total += delta->size();
  }
  return total;
}

const std::vector<StoreRecord>& ClassStore::records() const
{
  const auto tiers = gate_->pin();
  const auto* materialized = dynamic_cast<const MaterializedSegment*>(tiers->base.get());
  if (materialized == nullptr) {
    throw std::logic_error{
        "ClassStore::records: the base segment is mmap-backed; iterate via base_segment()"};
  }
  return materialized->records();
}

std::vector<StoreRecord> ClassStore::persisted_records() const
{
  // Copy the memtable BEFORE pinning the tiers: a concurrent flush publishes
  // its sealed run before clearing the memtable, so every record is visible
  // through at least one of the two (a record seen through both is
  // identical, and the memtable copy shadowing the run is a no-op).
  std::vector<StoreRecord> memtable;
  {
    const std::lock_guard<std::mutex> lock{memtable_->mutex};
    memtable = memtable_->records;
  }
  std::sort(memtable.begin(), memtable.end(),
            [](const StoreRecord& a, const StoreRecord& b) { return a.canonical < b.canonical; });
  const MaterializedSegment memtable_run{num_vars_, std::move(memtable)};
  std::vector<const Segment*> tiers = segments_of(*gate_->pin());
  tiers.push_back(&memtable_run);
  return merge_tiers(tiers);
}

// -- persistence -------------------------------------------------------------

void ClassStore::save(std::ostream& os) const
{
  const std::vector<StoreRecord> merged = persisted_records();
  // Loaded after the records are collected, so the header's class count
  // bounds every collected id even if an append lands in between.
  const std::uint64_t num_classes = next_class_id_.load(std::memory_order_acquire);
  write_base_segment(os, num_vars_, num_classes, pointers_to(merged));
}

void ClassStore::save(const std::string& path) const
{
  replace_file(path, "store file", [&](std::ostream& os) { save(os); });
}

namespace {

/// One epoch as read from disk: a base segment (plus, once its log is
/// replayed, the delta runs), and the next fresh class id they record.
struct OpenedTiers {
  TierSnapshot tiers;
  std::uint64_t num_classes = 0;
};

/// A decoded base as a segment, every record id checked against the
/// header's class count.
OpenedTiers materialize_base(LoadedBase base)
{
  for (const auto& record : base.records) {
    if (record.class_id >= base.header.num_classes) {
      throw StoreFormatError{"corrupt store records: record class id exceeds num_classes"};
    }
  }
  return {{std::make_shared<MaterializedSegment>(static_cast<int>(base.header.num_vars),
                                                 std::move(base.records)),
           {}},
          base.header.num_classes};
}

/// The base segment at `path`, mapped read-only or decoded into RAM — the
/// one way load() and open_tiers() get a base.
OpenedTiers open_base(const std::string& path, bool use_mmap)
{
  if (use_mmap) {
    std::shared_ptr<MmapSegment> segment = MmapSegment::open(path);
    const std::uint64_t num_classes = segment->num_classes();
    return {{std::move(segment), {}}, num_classes};
  }
  std::ifstream is{path, std::ios::binary};
  if (!is) {
    throw StoreFormatError{"cannot open store file: " + path};
  }
  return materialize_base(read_base_segment(is));
}

/// What to do with a torn trailing delta frame (a crash or full disk
/// mid-append). Either way the replay drops it.
enum class TornTail {
  kTruncate,  ///< cut the log back to its intact prefix (the log's owner)
  kKeep,      ///< leave the file alone (a replica: the log is the primary's)
};

/// The base at `path` plus every run its delta log replays — the one
/// "open base, replay log" step of open() and reload().
OpenedTiers open_tiers(const std::string& path, bool use_mmap, TornTail torn_tail)
{
  OpenedTiers opened = open_base(path, use_mmap);
  const int num_vars = opened.tiers.base->num_vars();
  const std::string dlog_path = ClassStore::delta_log_path(path);
  std::ifstream dlog{dlog_path, std::ios::binary};
  if (!dlog) {
    return opened;
  }
  DeltaLogReplay replay = read_delta_log(dlog, num_vars);
  dlog.close();
  for (auto& run : replay.runs) {
    opened.num_classes = std::max(opened.num_classes, run.num_classes_after);
    opened.tiers.deltas.push_back(
        std::make_shared<MaterializedSegment>(num_vars, std::move(run.records)));
  }
  if (replay.torn_tail && torn_tail == TornTail::kTruncate) {
    // Truncate back to the intact prefix so the next flush does not write
    // after garbage.
    std::error_code ec;
    std::filesystem::resize_file(dlog_path, replay.clean_bytes, ec);
    if (ec) {
      throw StoreFormatError{"cannot truncate torn delta log: " + dlog_path + " (" +
                             ec.message() + ")"};
    }
  }
  return opened;
}

}  // namespace

ClassStore ClassStore::load(std::istream& is, ClassStoreOptions options)
{
  OpenedTiers opened = materialize_base(read_base_segment(is));
  return ClassStore{std::move(opened.tiers), opened.num_classes, /*mmap_backed=*/false, options};
}

ClassStore ClassStore::load(const std::string& path, ClassStoreOptions options)
{
  OpenedTiers opened = open_base(path, /*use_mmap=*/false);
  return ClassStore{std::move(opened.tiers), opened.num_classes, /*mmap_backed=*/false, options};
}

ClassStore ClassStore::open(const std::string& path, const StoreOpenOptions& options)
{
  OpenedTiers opened = open_tiers(path, options.use_mmap, TornTail::kTruncate);
  return ClassStore{std::move(opened.tiers), opened.num_classes, options.use_mmap, options.store};
}

std::size_t ClassStore::reload(const std::string& path)
{
  // Build the replacement tiers fully before taking the gate — the re-open
  // and replay are the slow part, and readers keep serving the old epoch
  // until the single publish below.
  OpenedTiers opened = open_tiers(path, mmap_backed_, TornTail::kKeep);
  if (opened.tiers.base->num_vars() != num_vars_) {
    throw StoreFormatError{"reloaded store file has a different width: " + path};
  }
  std::size_t served = 0;
  for (const Segment* segment : segments_of(opened.tiers)) {
    served += segment->size();
  }

  const auto gate = gate_->acquire();
  // Monotone: ids handed out by this process never regress even if the
  // on-disk state observed here is older than what we already served.
  std::uint64_t current = next_class_id_.load(std::memory_order_relaxed);
  while (current < opened.num_classes &&
         !next_class_id_.compare_exchange_weak(current, opened.num_classes,
                                               std::memory_order_relaxed)) {
  }
  gate_->publish(gate, std::make_shared<TierSnapshot>(std::move(opened.tiers)));
  // Table/cache/memo tiers survive a reload by design: class ids are stable
  // across compaction, so previously published slots stay correct.
  npn4_prefill();
  return served;
}

std::vector<const StoreRecord*> ClassStore::sorted_memtable() const
{
  std::vector<const StoreRecord*> sorted;
  sorted.reserve(memtable_->records.size());
  for (const auto& record : memtable_->records) {
    sorted.push_back(&record);
  }
  std::sort(sorted.begin(), sorted.end(), [](const StoreRecord* a, const StoreRecord* b) {
    return a->canonical < b->canonical;
  });
  return sorted;
}

std::size_t ClassStore::publish_sealed(const std::unique_lock<std::mutex>& gate,
                                      const std::vector<const StoreRecord*>& sorted)
{
  std::vector<StoreRecord> run;
  run.reserve(sorted.size());
  for (const auto* record : sorted) {
    run.push_back(*record);
  }
  auto next = std::make_shared<TierSnapshot>(*gate_->pin());
  next->deltas.push_back(std::make_shared<MaterializedSegment>(num_vars_, std::move(run)));
  // Publish the sealed run BEFORE clearing the memtable: a reader always
  // finds an in-flight record through at least one of the two tiers.
  gate_->publish(gate, std::move(next));
  const std::lock_guard<std::mutex> lock{memtable_->mutex};
  const std::size_t flushed = memtable_->records.size();
  memtable_->records.clear();
  memtable_->index.clear();
  return flushed;
}

// The flush writes the frame first and publishes only once it is written: a
// failed write throws with the memtable intact, so the next flush retries it.
// Only gate holders mutate the memtable, so reading it needs no memtable lock.
std::size_t ClassStore::flush_delta(const std::string& dlog_path)
{
  const auto gate = gate_->acquire();
  if (memtable_->records.empty()) {
    return 0;
  }
  const std::vector<const StoreRecord*> sorted = sorted_memtable();
  append_file(dlog_path, "delta log", [&](std::ostream& os) {
    write_delta_frame(os, num_vars_, next_class_id_.load(std::memory_order_relaxed), sorted);
  });
  return publish_sealed(gate, sorted);
}

CompactionReport ClassStore::compact(const std::string& path)
{
  const std::lock_guard<std::mutex> serial{*compaction_mutex_};
  const std::uint64_t start = obs::now_ticks();
  // Phase 1 (cheap): seal the memtable into the log, so its appends join
  // the compaction, and pin the sealed tiers. Only the flush enters the gate.
  const std::string dlog = delta_log_path(path);
  CompactionReport report;
  report.flushed = flush_delta(dlog);
  const std::shared_ptr<const TierSnapshot> pinned = gate_->pin();
  report.runs = pinned->deltas.size();
  for (const auto& run : pinned->deltas) {
    report.records += run->size();
  }
  report.bytes = delta_log_size(dlog);
  record_phase("flush", start);

  fold_compaction(path, pinned);
  report.duration_ns = obs::ticks_to_ns(obs::now_ticks() - start);
  compaction_histogram("total").record_ns(report.duration_ns);
  return report;
}

void ClassStore::fold_compaction(const std::string& path,
                                 const std::shared_ptr<const TierSnapshot>& pinned)
{
  // Phase 2 (heavy; no gate held): merge the pinned tiers and write them as
  // the new base. Segments are immutable, so readers, appends and flushes
  // carry on. Loaded after the pin, the class count bounds every pinned id.
  std::uint64_t phase_start = obs::now_ticks();
  const std::uint64_t num_classes = next_class_id_.load(std::memory_order_acquire);
  std::vector<StoreRecord> merged = merge_tiers(segments_of(*pinned));
  phase_start = record_phase("merge", phase_start);
  replace_file(path, "store file", [&](std::ostream& os) {
    write_base_segment(os, num_vars_, num_classes, pointers_to(merged));
  });
  // A failed remap throws here, before anything is published: the store
  // keeps serving old base + runs, which the files on disk still agree
  // with (the log replays the merged runs over identical base records).
  std::shared_ptr<const Segment> base;
  if (mmap_backed_) {
    base = MmapSegment::open(path);
  } else {
    base = std::make_shared<MaterializedSegment>(num_vars_, std::move(merged));
  }
  phase_start = record_phase("write", phase_start);

  // Phase 3 (cheap; gated): shrink the log to the runs flushed since the
  // pin and publish. The new base landed first, so a crash in between
  // leaves a log whose merged runs shadow the base with identical records.
  const auto gate = gate_->acquire();
  const auto current = gate_->pin();
  // compact() serializes compactions; only a reload() could move the tiers.
  if (current->base != pinned->base || current->deltas.size() < pinned->deltas.size() ||
      !std::equal(pinned->deltas.begin(), pinned->deltas.end(), current->deltas.begin())) {
    throw std::logic_error{"ClassStore::compact: the store was re-tiered mid-compaction"};
  }
  const auto survivors =
      current->deltas.begin() + static_cast<std::ptrdiff_t>(pinned->deltas.size());
  const std::string dlog = delta_log_path(path);
  if (survivors == current->deltas.end()) {
    std::remove(dlog.c_str());
  } else {
    // The current class count bounds every surviving id, so it is a valid
    // (if conservative) num_classes_after for each frame.
    const std::uint64_t now_classes = next_class_id_.load(std::memory_order_relaxed);
    replace_file(dlog, "delta log", [&](std::ostream& os) {
      for (auto run = survivors; run != current->deltas.end(); ++run) {
        write_delta_frame(os, num_vars_, now_classes, pointers_to((*run)->records()));
      }
    });
  }
  gate_->publish(gate, std::make_shared<TierSnapshot>(
                           TierSnapshot{std::move(base), {survivors, current->deltas.end()}}));
  compactions_.fetch_add(1, std::memory_order_relaxed);
  record_phase("adopt", phase_start);
}

std::uint64_t ClassStore::delta_log_size(const std::string& dlog_path) noexcept
{
  std::error_code ec;
  const auto size = std::filesystem::file_size(dlog_path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

// -- lookup tiers ------------------------------------------------------------

std::optional<StoreRecord> ClassStore::memtable_find(const TruthTable& canonical) const
{
  const std::lock_guard<std::mutex> lock{memtable_->mutex};
  if (const auto it = memtable_->index.find(canonical); it != memtable_->index.end()) {
    return memtable_->records[it->second];
  }
  return std::nullopt;
}

std::optional<StoreRecord> ClassStore::find_canonical(const TruthTable& canonical) const
{
  // Memtable BEFORE the pin: a concurrent flush publishes its sealed run
  // before clearing the memtable, so a record mid-flush is visible through
  // at least one of the two probes.
  if (auto record = memtable_find(canonical)) {
    return record;
  }
  const auto tiers = gate_->pin();
  for (auto delta = tiers->deltas.rbegin(); delta != tiers->deltas.rend(); ++delta) {
    if (auto record = (*delta)->find(canonical)) {
      return record;
    }
  }
  return tiers->base->find(canonical);
}

std::optional<std::uint32_t> ClassStore::find_class_id(const TruthTable& canonical) const
{
  {
    const std::lock_guard<std::mutex> lock{memtable_->mutex};
    if (const auto it = memtable_->index.find(canonical); it != memtable_->index.end()) {
      return memtable_->records[it->second].class_id;
    }
  }
  const auto tiers = gate_->pin();
  for (auto delta = tiers->deltas.rbegin(); delta != tiers->deltas.rend(); ++delta) {
    if (const auto id = (*delta)->find_class_id(canonical)) {
      return id;
    }
  }
  return tiers->base->find_class_id(canonical);
}

StoreLookupResult ClassStore::make_result(const StoreRecord& record,
                                          const NpnTransform& query_to_canonical,
                                          LookupSource source) const
{
  // query --t--> canonical --inverse(rep_to_canonical)--> representative.
  StoreLookupResult result;
  result.class_id = record.class_id;
  result.representative = record.representative;
  result.to_representative = compose(inverse(record.rep_to_canonical), query_to_canonical);
  result.known = true;
  result.source = source;
  return result;
}

void ClassStore::check_width(const TruthTable& f, const char* who) const
{
  if (f.num_vars() != num_vars_) {
    std::ostringstream msg;
    msg << who << ": query has " << f.num_vars() << " variables, store holds " << num_vars_;
    throw std::invalid_argument{msg.str()};
  }
}

void ClassStore::npn4_publish(std::size_t class_index, const StoreRecord& record) const
{
  const std::lock_guard<std::mutex> lock{npn4_->mutex};
  if (npn4_->slots[class_index].load(std::memory_order_relaxed) != nullptr) {
    return;  // two racing resolvers of one class: first publish wins
  }
  auto owned = std::make_unique<const StoreRecord>(record);
  npn4_->slots[class_index].store(owned.get(), std::memory_order_release);
  npn4_->storage.push_back(std::move(owned));
}

void ClassStore::npn4_prefill()
{
  if (npn4_ == nullptr) {
    return;
  }
  for (std::size_t index = 0; index < npn4_->slots.size(); ++index) {
    if (npn4_->slots[index].load(std::memory_order_relaxed) != nullptr) {
      continue;
    }
    if (const auto record = find_canonical(npn4_class_canonical(num_vars_, index))) {
      npn4_publish(index, *record);
    }
  }
}

std::optional<StoreLookupResult> ClassStore::probe_cache(const TruthTable& f) const
{
  if (f.num_vars() != num_vars_) {
    return std::nullopt;
  }
  Npn4Result table;
  return fast_front(f, table);
}

std::optional<StoreLookupResult> ClassStore::fast_front(const TruthTable& f,
                                                        Npn4Result& table) const
{
  if (npn4_ != nullptr) {
    // One table load resolves class index + canonical + witness; a filled
    // slot turns that into the store answer without pinning the gate. The
    // entry is a local, copied out only on a miss: building the hit from
    // the out-parameter measured ~15 ns slower per table hit.
    const Npn4Result entry = npn4_lookup(f);
    if (const StoreRecord* slot =
            npn4_->slots[entry.class_index].load(std::memory_order_acquire)) {
      return make_result(*slot, entry.transform, LookupSource::kTable);
    }
    table = entry;
    return std::nullopt;
  }
  if (const auto entry = cache_.get(f)) {
    StoreLookupResult result;
    result.class_id = entry->class_id;
    result.representative = entry->representative;
    result.to_representative = entry->to_representative;
    result.known = true;
    result.source = LookupSource::kHotCache;
    return result;
  }
  return std::nullopt;
}

std::size_t ClassStore::memo_entries() const
{
  return memo_ != nullptr ? memo_->size() : 0;
}

std::optional<StoreLookupResult> ClassStore::lookup(const TruthTable& f) const
{
  check_width(f, "ClassStore::lookup");
  return walk(f, MissPolicy::kNone);
}

StoreLookupResult ClassStore::lookup_or_classify(const TruthTable& f, bool append_on_miss)
{
  check_width(f, "ClassStore::lookup_or_classify");
  return *walk(f, append_on_miss ? MissPolicy::kAppend : MissPolicy::kTransient);
}

std::optional<StoreLookupResult> ClassStore::walk(const TruthTable& f, MissPolicy miss) const
{
  // The fast front and the memo resolve in a few hundred ns — even one
  // clock read stalls them measurably, so their series sample 1 in
  // kFastTierSample events (see obs::sample_1_in). The canonicalize-and-
  // resolve tiers are microseconds-scale and time every event; an unsampled
  // slow lookup starts its clock after the fast probes, which under-reports
  // by the probe cost (~2% of a cold lookup) instead of taxing every warm hit.
  const bool sampled = obs::sample_1_in<kFastTierSample>();
  std::uint64_t t0 = sampled ? obs::now_ticks() : 0;
  Npn4Result table;
  std::optional<StoreLookupResult> result = fast_front(f, table);
  if (result) {
    if (sampled) {
      record_lookup_latency(static_cast<std::size_t>(result->source), t0);
    }
    return result;
  }
  // The memo serves width >= 5 only: below, the table is the
  // canonicalizer. A bypassed memo skips the key derivation too — the
  // derivation is most of what the probation measured as waste.
  std::optional<SemiclassKey> key;
  std::optional<CanonResult> memo_hit;
  if (memo_ != nullptr && !memo_bypassed()) {
    key = semiclass_key(f);
    const std::uint64_t probes = memo_probes_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (probes == kMemoProbationProbes &&
        memo_hits_.load(std::memory_order_relaxed) < kMemoProbationMinHits) {
      memo_bypassed_.store(true, std::memory_order_relaxed);
    }
    memo_hit = memo_->find(f, *key);
    if (memo_hit) {
      memo_hits_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // A memo hit is a fast tier too: it stays on the sampled clock.
  const bool timed = sampled || !memo_hit;
  if (!sampled && timed) {
    t0 = obs::now_ticks();
  }
  // At width <= 4 the fast front's table load already holds the canonical
  // form and witness: the table IS the canonicalizer there.
  const LookupSource hit_source = npn4_ != nullptr ? LookupSource::kTable
                                  : memo_hit       ? LookupSource::kMemo
                                                   : LookupSource::kIndex;
  const CanonResult canon = [&] {
    if (npn4_ != nullptr) {
      return CanonResult{TruthTable::from_word(num_vars_, table.canonical_word), table.transform};
    }
    if (memo_hit) {
      return std::move(*memo_hit);
    }
    canonicalizations_.fetch_add(1, std::memory_order_relaxed);
    return exact_npn_canonical_with_transform(f);
  }();
  // A memo hit's class is memoized already: only a canonicalized class is
  // offered to the memo.
  const std::size_t npn4_class = table.class_index;
  result = resolve(f, canon, miss, hit_source, key && !memo_hit ? &*key : nullptr,
                   npn4_ != nullptr ? &npn4_class : nullptr);
  if (timed) {
    record_lookup_latency(result ? static_cast<std::size_t>(result->source) : kMissTier, t0);
  }
  return result;
}

std::optional<StoreLookupResult> ClassStore::resolve(const TruthTable& f,
                                                     const CanonResult& canon, MissPolicy miss,
                                                     LookupSource hit_source,
                                                     const SemiclassKey* key,
                                                     const std::size_t* npn4_class) const
{
  // An index hit is reported by the step that canonicalized: src=table at
  // width <= 4 (which also fills the class's slot, so every later query is
  // one array load), src=memo for a memo hit, else src=index.
  const auto hit = [&](const StoreRecord& record) {
    std::optional<StoreLookupResult> result = make_result(record, canon.transform, hit_source);
    learn(f, record, *result, key, npn4_class);
    return result;
  };

  // Known classes resolve without entering the gate.
  if (const std::optional<StoreRecord> record = find_canonical(canon.canonical)) {
    return hit(*record);
  }
  if (miss == MissPolicy::kNone) {
    return std::nullopt;
  }

  // Miss: serialize through the gate and re-probe — a concurrent session
  // may have appended this very class between our probe and the gate.
  const auto gate = gate_->acquire();
  if (const std::optional<StoreRecord> record = find_canonical(canon.canonical)) {
    return hit(*record);
  }

  // Live tier: the class is new. Reuse (or allocate) its dense id and keep
  // the first query as representative so repeated misses stay consistent.
  const auto transient = miss_records_.find(canon.canonical);
  StoreRecord record;
  if (transient != miss_records_.end()) {
    record = transient->second;
  } else {
    record.canonical = canon.canonical;
    record.representative = f;
    record.rep_to_canonical = canon.transform;
    record.class_id =
        static_cast<std::uint32_t>(next_class_id_.fetch_add(1, std::memory_order_acq_rel));
    record.class_size = 1;
  }

  StoreLookupResult result = make_result(record, canon.transform, LookupSource::kLive);
  result.known = false;

  if (miss == MissPolicy::kAppend) {
    if (transient != miss_records_.end()) {
      miss_records_.erase(transient);
    }
    {
      const std::lock_guard<std::mutex> lock{memtable_->mutex};
      memtable_->index.emplace(record.canonical,
                               static_cast<std::uint32_t>(memtable_->records.size()));
      memtable_->records.push_back(record);
    }
    // Persistent from here on, so the slot, cache and memo may serve it.
    // Transient misses (the else branch) warm none of them: they must keep
    // reporting known=false until someone appends them.
    learn(f, record, result, key, npn4_class);
  } else if (transient == miss_records_.end()) {
    miss_records_.emplace(record.canonical, record);
  }
  return result;
}

void ClassStore::learn(const TruthTable& f, const StoreRecord& record,
                       const StoreLookupResult& result, const SemiclassKey* key,
                       const std::size_t* npn4_class) const
{
  if (npn4_class != nullptr) {
    npn4_publish(*npn4_class, record);
    return;
  }
  cache_.put(f, CacheEntry{result.class_id, result.representative, result.to_representative});
  if (key != nullptr) {
    memo_->insert(*key, record.canonical);
  }
}

}  // namespace facet
