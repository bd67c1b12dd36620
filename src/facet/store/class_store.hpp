/// \file class_store.hpp
/// \brief Segmented, disk-backed NPN class store with a hot-cache front end.
///
/// A ClassStore holds the classification knowledge of one function width n:
/// one record per NPN class, keyed by the exact canonical form
/// (exact_npn_canonical), carrying the dense class id, the first dataset
/// member as representative, the class size, and the transform mapping the
/// representative onto the canonical form. lookup() and lookup_or_classify()
/// resolve a query function f through ONE tier walk, differing only in what
/// the last step does when no tier knows the class:
///
///   1. fast front  — probe_cache(): at width <= 4 the baked NPN4 norm table
///                    (npn4_table.hpp) resolves class index, canonical form
///                    and witness in one array load, and a per-class
///                    write-once slot turns that into the full store answer
///                    (src=table; no gate, no search). Wider stores probe
///                    the sharded-LRU hot cache by f itself (hot_cache.hpp).
///                    A width <= 4 store never uses the cache or the memo:
///                    its slots answer every class the store holds;
///   2. canonical   — f's canonical form and witness: the table's word at
///                    width <= 4. Wider, the semiclass memo (SemiclassMemo,
///                    semiclass.hpp) answers when it holds f's class: it
///                    hashes f's NPN-invariant semiclass key into a bucket
///                    of resolved classes and confirms membership with the
///                    Boolean matcher (matcher.hpp). Else the
///                    branch-and-bound (exact_canon.hpp) runs;
///   3. resolve     — probe the memtable (unflushed appends), the delta runs
///                    newest-first, then the base: a binary search over the
///                    sorted records, either materialized in RAM (load; any
///                    format version) or executed in place over a read-only
///                    mmap of a version-3 `.fcs` file (open with use_mmap;
///                    one block per probe, lazily validated). A hit warms
///                    the slot (width <= 4) or the cache and memo. A miss
///                    follows the caller's policy: lookup() reports nullopt;
///                    lookup_or_classify() classifies live, allocating the
///                    next dense class id and optionally appending the new
///                    class to the store.
///
/// The semiclass memo exists because exact canonicalization dominates every
/// tier after it: a memo hit replaces the canonical-form search with one
/// invariant-key hash plus a signature-pruned matcher probe. Its answer is a
/// canonical form and witness like the branch-and-bound's, so it feeds the
/// same resolve step, which reports src=memo when the index answers. The
/// memo learns every class the slow path resolves (index hits and appended
/// live misses; never the transient non-appending misses, which must keep
/// reporting known=false), and its hits are matcher-verified, so class ids
/// are bit-identical with the memo enabled, disabled, or mid-eviction. A
/// probation window (memo_bypassed()) turns the memo off for a store whose
/// first probes find almost no hits.
///
/// Appends accumulate in the memtable until flush_delta() seals them into an
/// immutable delta run (and, given a path, appends one frame to the
/// `<index>.fcs.dlog` log — an O(delta) write, unlike the O(index) rewrite
/// of save()). compact() folds base + deltas + memtable back into a single
/// fresh base and clears the log. open() restores the whole hierarchy: base
/// segment plus every logged delta run. Every file the store writes goes
/// through file_writer.hpp: a replaced file (base, rewritten log) lands by
/// write-then-rename, and a failed log append is truncated away before the
/// memtable it was sealing is touched.
///
/// Class ids are assigned by first occurrence at build time, exactly as the
/// BatchEngine / sequential classifiers assign them, so classifying a
/// dataset through lookups is bit-identical to classify_exhaustive /
/// BatchEngine{kExhaustive} output — including on a store that starts empty
/// and learns every class through the live tier.
///
/// ## Concurrency
///
/// The store synchronizes itself — callers (the serve sessions, the network
/// server, the background compactor) never wrap it in an external lock:
///
///   * The immutable tiers — base segment + delta runs — are published as
///     one swapped-wholesale TierSnapshot (gate.hpp). Readers pin the
///     current snapshot (a pointer-copy handoff, never a wait on a
///     mutator's critical section) and search it with no lock held; a
///     flush or compaction swap publishes a fresh snapshot and the retired
///     epoch is freed by the last pin that drops it.
///   * The memtable is guarded by a mutex of its own, held only for the
///     hash probe / insert — never across canonicalization, segment
///     searches or I/O.
///   * The semiclass memo synchronizes itself like the memtable: a
///     dedicated mutex held only to copy a bucket out (find) or splice an
///     entry in (insert), never across a matcher probe or key derivation.
///     The lock order is gate -> memo (append inserts happen under the
///     gate); no path takes them the other way around.
///   * Mutations — lookup_or_classify's live tier, flush_delta, and the
///     flush and swap steps of compact() — serialize on one small per-store
///     gate.
///     Canonicalization (the expensive step) always happens before the
///     gate is taken; lookup_or_classify re-probes the index under the
///     gate, so two sessions racing on the same novel class agree on one
///     id and one appended record. save() is a snapshot-ordered *reader*
///     (it holds no gate): concurrent appends may or may not land in the
///     written file, and only the caller's own file-level coordination
///     prevents two writers racing on one target path.
///
/// Thread-safe from any mix of threads: lookup(), probe_cache(),
/// find_canonical(), find_class_id(), lookup_or_classify(),
/// flush_delta(), compact(), and the counters (num_records / num_appended /
/// num_delta_segments / num_classes / ...). Readers never enter the
/// mutation gate: the snapshot pin and the memtable probe each take a
/// dedicated mutex for a pointer copy / one hash op — never across
/// canonicalization, segment searches or I/O, so a flush writing its frame
/// or a compactor mid-merge cannot stall them.
/// Not synchronized: construction, move,
/// save() racing compact() or another save() of the same *file* (or another
/// process writing it), and
/// records()/base_segment(), whose returned references are only stable
/// while no compaction swap lands (pin tier_snapshot() to hold an epoch
/// across concurrent swaps).
///
/// compact() runs in three phases so readers and appenders keep going
/// through the heavy merge: it seals the memtable into the log (a flush,
/// gated) and pins the base + delta runs; merges and writes them as the
/// fresh base with no gate held (the segments are immutable and shared);
/// then swaps the new base in through the gate (cheap). Runs flushed or
/// records appended while the merge ran survive untouched. Concurrent
/// compact() calls on one store run one after the other.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "facet/npn/exact_canon.hpp"
#include "facet/npn/npn4_table.hpp"
#include "facet/npn/semiclass.hpp"
#include "facet/npn/transform.hpp"
#include "facet/obs/histogram.hpp"
#include "facet/store/gate.hpp"
#include "facet/store/hot_cache.hpp"
#include "facet/store/segment.hpp"
#include "facet/store/store_format.hpp"
#include "facet/tt/truth_table.hpp"

namespace facet {

/// Which tier resolved a lookup.
enum class LookupSource {
  kHotCache,  ///< sharded-LRU hit; no canonicalization performed
  kMemo,      ///< semiclass-memo hit: matcher-verified, no canonicalization
  kTable,     ///< NPN4 norm table (width <= 4): one array load, no search
  kIndex,     ///< canonicalized, found in memtable / delta runs / base
  kLive,      ///< canonicalized, unknown: classified live (fresh class id)
};

/// Number of LookupSource values; arrays indexed by a source use it.
inline constexpr std::size_t kNumLookupSources =
    static_cast<std::size_t>(LookupSource::kLive) + 1;

/// Stable wire/CLI name of a lookup source: "cache", "memo", "table",
/// "index" or "live".
[[nodiscard]] const char* lookup_source_name(LookupSource source) noexcept;

struct StoreLookupResult {
  std::uint32_t class_id = 0;
  /// The class representative the query maps onto (the query itself for a
  /// class first seen through the live tier).
  TruthTable representative;
  /// apply_transform(query, to_representative) == representative.
  NpnTransform to_representative;
  /// True iff the class was already in the store (records or appended).
  bool known = false;
  LookupSource source = LookupSource::kIndex;
};

struct ClassStoreOptions {
  /// Total hot-cache entries across shards; 0 disables the cache. Width
  /// <= 4 stores never consult it (nor the memo): the norm table answers.
  std::size_t hot_cache_capacity = 1u << 16;
  std::size_t hot_cache_shards = 8;
  /// Total semiclass-memo entries across buckets; 0 disables the memo.
  /// On overflow the memo is cleared wholesale and relearns — correctness
  /// never depends on what the memo holds.
  std::size_t semiclass_memo_capacity = 1u << 16;
};

/// The immutable read tiers of one epoch: the base segment plus the delta
/// runs sealed so far, oldest first. Published atomically through the
/// store's gate; a pinned snapshot stays alive and bit-stable across any
/// number of concurrent flushes and compaction swaps.
struct TierSnapshot {
  std::shared_ptr<const Segment> base;
  std::vector<std::shared_ptr<const MaterializedSegment>> deltas;
};

/// What one ClassStore::compact() did.
struct CompactionReport {
  std::size_t flushed = 0;        ///< memtable records its flush sealed
  std::size_t runs = 0;           ///< delta runs folded into the new base
  std::size_t records = 0;        ///< records those runs held
  std::uint64_t bytes = 0;        ///< delta-log bytes folded away
  std::uint64_t duration_ns = 0;  ///< flush through swap
};

/// How ClassStore::open materializes the base segment.
struct StoreOpenOptions {
  /// Map the `.fcs` file read-only and search it in place instead of
  /// decoding every record into RAM. Requires mmap_supported() and a
  /// version-3 file (compact a legacy file first).
  bool use_mmap = false;
  ClassStoreOptions store{};
};

class ClassStore {
 public:
  /// An empty store of width `num_vars` — every class arrives through the
  /// live tier of lookup_or_classify().
  explicit ClassStore(int num_vars, ClassStoreOptions options = {});

  /// A store over prebuilt records (store_builder.hpp). Records are sorted
  /// by canonical form; duplicate canonical forms throw std::invalid_argument.
  /// `num_classes` is the next fresh class id (>= every record's id + 1).
  ClassStore(int num_vars, std::vector<StoreRecord> records, std::uint64_t num_classes,
             ClassStoreOptions options = {});

  /// Movable (the factory functions return by value), but a move is NOT
  /// thread-safe: the source must be quiescent.
  ClassStore(ClassStore&& other) noexcept;
  ClassStore& operator=(ClassStore&& other) noexcept;
  ClassStore(const ClassStore&) = delete;
  ClassStore& operator=(const ClassStore&) = delete;
  ~ClassStore() = default;

  [[nodiscard]] int num_vars() const noexcept { return num_vars_; }
  /// Persisted classes: base records, flushed delta runs, and the memtable.
  /// Racing a flush, the count can transiently include the sealing run
  /// twice (the run is published before the memtable clears, so no record
  /// is ever *missing*); lookups are unaffected — the overlap shadows
  /// itself with identical records.
  [[nodiscard]] std::size_t num_records() const;
  /// Unflushed appends (live misses with append_on_miss) in the memtable.
  [[nodiscard]] std::size_t num_appended() const;
  /// Flushed-but-uncompacted delta runs.
  [[nodiscard]] std::size_t num_delta_segments() const;
  [[nodiscard]] std::size_t num_delta_records() const;
  /// Next fresh class id == total classes seen (persisted + live-transient).
  [[nodiscard]] std::uint64_t num_classes() const noexcept
  {
    return next_class_id_.load(std::memory_order_acquire);
  }

  /// Pins the current epoch of immutable tiers (base + delta runs). The
  /// returned snapshot stays alive and bit-stable for as long as the caller
  /// holds it, across any concurrent flush or compaction swap.
  [[nodiscard]] std::shared_ptr<const TierSnapshot> tier_snapshot() const
  {
    return gate_->pin();
  }

  /// The base segment (compacted sorted records; excludes deltas/memtable).
  /// The reference tracks the *currently published* base: it is stable only
  /// while no compaction swap lands — pin tier_snapshot() instead when a
  /// compactor may run concurrently.
  [[nodiscard]] const Segment& base_segment() const { return *gate_->pin()->base; }
  /// True when the base serves from a read-only mmap instead of RAM.
  [[nodiscard]] bool mmap_backed() const noexcept { return mmap_backed_; }

  /// The materialized base records, for stores whose base lives in RAM
  /// (built stores, load()). Throws std::logic_error on an mmap-backed base
  /// — iterate via base_segment().record_at there. Like base_segment(),
  /// stable only while no compaction swap lands.
  [[nodiscard]] const std::vector<StoreRecord>& records() const;

  /// Every persisted record — base, delta runs and memtable merged (newest
  /// occurrence of a canonical form wins, the order lookups shadow in) —
  /// sorted by canonical form.
  [[nodiscard]] std::vector<StoreRecord> persisted_records() const;

  // -- persistence ---------------------------------------------------------

  /// Serializes base + deltas + memtable, re-sorted by canonical form, as
  /// one fresh v3 base segment. Live-transient class ids (non-appending
  /// misses) are not persisted.
  void save(std::ostream& os) const;
  void save(const std::string& path) const;

  /// Loads a store with a fully-materialized, eagerly-validated base:
  /// header magic/version/width, block checksums, canonical
  /// sortedness/uniqueness, transform sanity, record ids below the header's
  /// class count. Reads versions 1 through 3. Throws StoreFormatError on
  /// any violation.
  [[nodiscard]] static ClassStore load(std::istream& is, ClassStoreOptions options = {});
  [[nodiscard]] static ClassStore load(const std::string& path, ClassStoreOptions options = {});

  /// Opens `path` (materialized, or zero-copy via mmap with use_mmap, which
  /// needs a version-3 file) and replays its delta log (delta_log_path(path))
  /// if present, restoring every flushed run as an immutable delta segment.
  /// A torn trailing frame — a crash or full disk mid-flush — is dropped
  /// and the log is truncated back to its intact prefix, so a crashed
  /// append never bricks the store; corruption before the tail throws
  /// StoreFormatError.
  [[nodiscard]] static ClassStore open(const std::string& path,
                                       const StoreOpenOptions& options = {});

  /// Companion delta-log file of a base index path.
  [[nodiscard]] static std::string delta_log_path(const std::string& path)
  {
    return path + ".dlog";
  }

  /// Re-opens `path` (same flavor as open(): mmap-backed stores remap, the
  /// rest rematerialize), replays its delta log, and publishes the fresh
  /// base + runs as a new tier epoch — the readonly-replica adopt path
  /// after a primary's compaction rename. Readers pinned to the old epoch
  /// keep serving it until they drop the pin; the hot cache, memo and NPN4
  /// slots survive untouched (class ids and canonical forms are stable
  /// across compaction). Unlike open(), a torn trailing delta frame is
  /// dropped WITHOUT truncating the log — the file belongs to the primary.
  /// The memtable is untouched (a replica's is empty). Throws
  /// StoreFormatError if the file is unreadable or its width disagrees;
  /// the published tiers are unchanged on throw. Returns the number of
  /// records now served from the reloaded base + runs.
  std::size_t reload(const std::string& path);

  /// Seals the memtable into an immutable delta segment, appending it as
  /// one frame to the delta log at `dlog_path`. Returns the number of
  /// records flushed (0 = no-op, the log is not touched). Serialized through
  /// the store gate; readers keep serving throughout. The run is published
  /// only after the frame is written: a failed append is truncated back off
  /// the log and throws StoreFormatError with the memtable intact, so a
  /// retry flushes the same records.
  std::size_t flush_delta(const std::string& dlog_path);

  /// Folds the memtable, every delta run and the base into a fresh v3 base
  /// segment at `path` (write-then-rename; a legacy file is upgraded), and
  /// re-tiers this store on it (remapped when mmap-backed). Phases (see the
  /// file comment): flush the memtable to delta_log_path(path) and pin the
  /// tiers; merge and write with no gate held; under the gate, rewrite the
  /// delta log to hold only the runs flushed since the pin (removing it when
  /// none did) and publish. Records each phase in
  /// `facet_compaction_duration{phase=flush|merge|write|adopt|total}`.
  /// Readers pinned to the old epoch keep serving it until they drop the
  /// pin. Throws StoreFormatError when a write fails; the store then keeps
  /// serving every record it held (its flush may have sealed the memtable
  /// into a run), and the files on disk still hold the same records.
  CompactionReport compact(const std::string& path);

  /// Compactions applied to this store object — trigger/telemetry input for
  /// the background compactor.
  [[nodiscard]] std::uint64_t num_compactions() const noexcept
  {
    return compactions_.load(std::memory_order_relaxed);
  }

  /// Bytes currently in the delta log at `dlog_path` (0 when absent) — the
  /// `--compact-after-bytes` trigger input.
  [[nodiscard]] static std::uint64_t delta_log_size(const std::string& dlog_path) noexcept;

  // -- lookup tiers --------------------------------------------------------

  /// Index probe by canonical form: memtable, then delta runs newest-first,
  /// then the base segment. No canonicalization, no cache.
  [[nodiscard]] std::optional<StoreRecord> find_canonical(const TruthTable& canonical) const;

  /// Index probe returning only the class id; skips record
  /// materialization on every tier.
  [[nodiscard]] std::optional<std::uint32_t> find_class_id(const TruthTable& canonical) const;

  /// Fast-front probe by the query function itself; never canonicalizes.
  /// Width <= 4: the class's norm-table slot (src=table) or nullopt. Wider:
  /// the sharded-LRU probe (src=cache).
  [[nodiscard]] std::optional<StoreLookupResult> probe_cache(const TruthTable& f) const;

  /// Full read-only lookup through the tier walk (see the file comment):
  /// fast front, memo or canonicalize, index — warming the slot, or the
  /// cache and memo, on a hit. nullopt if the class is not in the store; a miss
  /// fills nothing.
  [[nodiscard]] std::optional<StoreLookupResult> lookup(const TruthTable& f) const;

  /// The same tier walk with live fallback: unknown canonical forms are
  /// classified live under the next dense class id. With `append_on_miss`
  /// the new class becomes a persistent record (and is served from the
  /// index from then on); without it the id is remembered only for this
  /// store object's lifetime, keeping repeated queries consistent, and no
  /// slot, cache or memo entry is filled. Known classes resolve without
  /// touching the gate; the miss path serializes through it and re-probes,
  /// so concurrent sessions racing on one novel class agree on one id.
  [[nodiscard]] StoreLookupResult lookup_or_classify(const TruthTable& f,
                                                     bool append_on_miss = false);

  // -- hot cache -----------------------------------------------------------

  [[nodiscard]] HotCacheStats hot_cache_stats() const { return cache_.stats(); }
  void clear_hot_cache() const { cache_.clear(); }

  // -- semiclass memo --------------------------------------------------------

  /// Memo probes that found the query's class (LookupSource::kMemo).
  [[nodiscard]] std::uint64_t num_memo_hits() const noexcept
  {
    return memo_hits_.load(std::memory_order_relaxed);
  }
  /// Exact canonicalizations performed inside lookup() / lookup_or_classify()
  /// — queries that missed both the hot cache and the memo. Always 0 on
  /// stores of width <= 4, where the norm table is the canonicalizer.
  [[nodiscard]] std::uint64_t num_canonicalizations() const noexcept
  {
    return canonicalizations_.load(std::memory_order_relaxed);
  }
  /// Classes currently held by the semiclass memo.
  [[nodiscard]] std::size_t memo_entries() const;
  /// Memo probes attempted (hits + misses), the probation-window input.
  [[nodiscard]] std::uint64_t num_memo_probes() const noexcept
  {
    return memo_probes_.load(std::memory_order_relaxed);
  }
  /// True once the probation window closed the memo: after its first
  /// kMemoProbationProbes probes (class_store.cpp) the memo had scored
  /// fewer than kMemoProbationMinHits hits. Sticky for the store's
  /// lifetime; lookups skip key derivation, probe and insert from then on.
  [[nodiscard]] bool memo_bypassed() const noexcept
  {
    return memo_bypassed_.load(std::memory_order_relaxed);
  }

 private:
  /// Tests drive compact()'s merge-and-swap step on a tier pin of their own
  /// choosing, so appends can land deterministically mid-compaction.
  friend class ClassStoreTestAccess;

  struct CacheEntry {
    std::uint32_t class_id = 0;
    TruthTable representative;
    NpnTransform to_representative;
  };

  /// The memtable: live misses with append_on_miss, hash-indexed
  /// by canonical form; sealed into a delta run by flush_delta(). Only gate
  /// holders mutate it; the mutex lets readers probe it concurrently, and
  /// is held for single map operations only — never across I/O.
  struct Memtable {
    mutable std::mutex mutex;
    std::vector<StoreRecord> records;
    std::unordered_map<TruthTable, std::uint32_t, TruthTableHash> index;
  };

  /// What the resolve step does when no tier knows the class: lookup()
  /// reports nullopt; lookup_or_classify() classifies live, keeping the new
  /// class for this object's lifetime (transient) or as a record (append).
  enum class MissPolicy { kNone, kTransient, kAppend };

  /// The fast front of a width <= 4 store: one write-once slot per NPN
  /// class of the store's width, indexed by the norm table's dense class
  /// index. A filled slot points at an immutable heap-owned record, so a
  /// reader resolves a query with one npn4_lookup plus one acquire load —
  /// no gate pin, no cache, no canonicalizer. Slots are published under the
  /// writer mutex (double-checked) when a class first resolves through the
  /// index or is appended; transient non-appending misses never fill a slot
  /// (they must keep reporting known=false). Class ids and canonical forms
  /// never change across flush/compaction, so a published record stays
  /// valid for the store's lifetime.
  struct Npn4Slots {
    std::mutex mutex;
    std::vector<std::unique_ptr<const StoreRecord>> storage;
    std::vector<std::atomic<const StoreRecord*>> slots;
    explicit Npn4Slots(std::size_t count) : slots(count) {}
  };

  /// A store over already-opened tiers (load, open).
  ClassStore(TierSnapshot tiers, std::uint64_t num_classes, bool mmap_backed,
             ClassStoreOptions options);

  [[nodiscard]] StoreLookupResult make_result(const StoreRecord& record,
                                              const NpnTransform& query_to_canonical,
                                              LookupSource source) const;
  void check_width(const TruthTable& f, const char* who) const;
  /// Replaces the published tiers (construction time; not concurrent).
  void reset_tiers(TierSnapshot tiers);
  /// Memtable probe under its mutex; copies the record out.
  [[nodiscard]] std::optional<StoreRecord> memtable_find(const TruthTable& canonical) const;
  /// probe_cache() that also hands back f's norm-table entry at width <= 4,
  /// so the canonicalize step of a cold slot needs no second table load.
  [[nodiscard]] std::optional<StoreLookupResult> fast_front(const TruthTable& f,
                                                            Npn4Result& table) const;
  /// The tier walk behind lookup() and lookup_or_classify(): fast front,
  /// memo or canonicalize, resolve. Returns nullopt only under kNone.
  [[nodiscard]] std::optional<StoreLookupResult> walk(const TruthTable& f,
                                                      MissPolicy miss) const;
  /// The resolve step: index probe, then the miss policy. An index hit
  /// reports `hit_source` (which step produced `canon`). A hit, or an
  /// appended live miss, warms the slot of a non-null `npn4_class` or else
  /// the cache and (under a non-null `key`) the memo; transient misses
  /// warm nothing, so they keep reporting known=false.
  [[nodiscard]] std::optional<StoreLookupResult> resolve(const TruthTable& f,
                                                         const CanonResult& canon,
                                                         MissPolicy miss, LookupSource hit_source,
                                                         const SemiclassKey* key,
                                                         const std::size_t* npn4_class) const;
  /// The learning half of resolve(): publishes `record` to the slot of a
  /// non-null `npn4_class`, else caches `result` under f and memoizes
  /// `record` under a non-null `key`.
  void learn(const TruthTable& f, const StoreRecord& record, const StoreLookupResult& result,
             const SemiclassKey* key, const std::size_t* npn4_class) const;
  /// Publishes `record` into the table-tier slot of `class_index`
  /// (double-checked under the slot writer mutex; no-op when already
  /// filled). const because slots warm from const lookups, like the cache.
  void npn4_publish(std::size_t class_index, const StoreRecord& record) const;
  /// Fills every slot whose class canonical the index already holds —
  /// construction/open time, so an exhaustively-built store answers every
  /// query from the table without ever pinning the gate.
  void npn4_prefill();
  /// The memtable sorted by canonical form, as pointers for the writers.
  /// Gate held (the memtable cannot shrink underneath the pointers).
  [[nodiscard]] std::vector<const StoreRecord*> sorted_memtable() const;
  /// Publishes the frame just written from `sorted` (sorted_memtable()) as
  /// a delta run, then clears the memtable. Gate held.
  std::size_t publish_sealed(const std::unique_lock<std::mutex>& gate,
                             const std::vector<const StoreRecord*>& sorted);
  /// compact()'s merge, write and swap phases over the tiers `pinned` holds
  /// (a pin of this store taken after its last swap).
  void fold_compaction(const std::string& path, const std::shared_ptr<const TierSnapshot>& pinned);

  /// Resolves the per-tier lookup-latency histograms of this store's width
  /// from the global metric registry into lookup_latency_ (construction
  /// time only; the hot path touches just the cached pointers).
  void resolve_metrics();
  /// Records one lookup's latency (ticks since `start_ticks`) under its
  /// resolving tier. `tier` indexes lookup_latency_: the LookupSource value,
  /// or kMissTier for a read-only lookup that resolved nowhere.
  void record_lookup_latency(std::size_t tier, std::uint64_t start_ticks) const noexcept;
  /// lookup_latency_ slot of a lookup() miss (nullopt: canonicalized, not
  /// in any tier) — one past the LookupSource values.
  static constexpr std::size_t kMissTier = 5;
  /// Sampling period of the cache/memo latency series: those tiers resolve
  /// in a few hundred ns, where even one clock read is a measurable stall,
  /// so only 1 in this many events is timed (obs::sample_1_in). The
  /// canonicalize-and-search tiers time every event.
  static constexpr unsigned kFastTierSample = 64;

  int num_vars_;
  ClassStoreOptions options_;
  /// Per-tier `facet_store_lookup_latency{tier=...,width=<n>}` handles,
  /// indexed by LookupSource (+ kMissTier). Pointers into the process-wide
  /// registry: stable forever, shared by stores of the same width, copied
  /// wholesale on move.
  std::array<obs::LatencyHistogram*, 6> lookup_latency_{};
  /// The store gate: publishes the TierSnapshot epochs (delta runs + base) and
  /// serializes mutators. unique_ptr so the store stays movable.
  std::unique_ptr<StoreGate<TierSnapshot>> gate_;
  bool mmap_backed_ = false;
  std::unique_ptr<Memtable> memtable_;
  /// The semiclass memo; null at width <= 4 (the table answers) or when
  /// semiclass_memo_capacity is 0. unique_ptr so the store stays movable;
  /// memoization mutates it from const lookups (like the hot cache).
  std::unique_ptr<SemiclassMemo> memo_;
  mutable std::atomic<std::uint64_t> memo_hits_{0};
  mutable std::atomic<std::uint64_t> memo_probes_{0};
  /// Set once when the probation window ends hit-starved; checked before
  /// key derivation so a bypassed memo costs one relaxed load per lookup.
  mutable std::atomic<bool> memo_bypassed_{false};
  mutable std::atomic<std::uint64_t> canonicalizations_{0};
  /// Norm-table slots; non-null iff num_vars_ <= 4. unique_ptr so the store
  /// stays movable (slot atomics are not).
  std::unique_ptr<Npn4Slots> npn4_;
  /// Live-transient classes (non-appending misses), keyed by canonical form.
  /// Never visible to find_canonical() or the hot cache, so an index probe
  /// never reports a class nobody appended. Gate holders only. mutable (like
  /// next_class_id_) because the const walk() writes both in its live step,
  /// which only the non-const lookup_or_classify() reaches.
  mutable std::unordered_map<TruthTable, StoreRecord, TruthTableHash> miss_records_;
  mutable std::atomic<std::uint64_t> next_class_id_{0};
  std::atomic<std::uint64_t> compactions_{0};
  /// Held across a whole compact(), so concurrent compactions queue instead
  /// of racing on the base file. Taken before the gate, never inside it.
  /// unique_ptr so the store stays movable.
  std::unique_ptr<std::mutex> compaction_mutex_;
  ShardedLruCache<TruthTable, CacheEntry, TruthTableHash> cache_;
};

}  // namespace facet
