#include "facet/engine/batch_engine.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "facet/engine/shard.hpp"
#include "facet/engine/work_queue.hpp"
#include "facet/npn/exact_canon.hpp"
#include "facet/npn/fp_classifier.hpp"
#include "facet/npn/matcher.hpp"
#include "facet/npn/npn4_table.hpp"
#include "facet/npn/semi_canonical.hpp"
#include "facet/npn/semiclass.hpp"
#include "facet/obs/clock.hpp"
#include "facet/obs/registry.hpp"
#include "facet/util/hash.hpp"

namespace facet {

/// Per-shard persistent state: memo caches that survive across classify()
/// calls. Each shard is processed by exactly one worker per call, and a
/// function always hashes to the same shard, so no locking is needed.
struct BatchShardState {
  /// Image-based kinds: input table -> canonical image. For kHierarchical
  /// this holds the level-1 (semi-canonical) image.
  std::unordered_map<TruthTable, TruthTable, TruthTableHash> image_cache;
  /// kHierarchical level 2: semi-canonical image -> refined image.
  std::unordered_map<TruthTable, TruthTable, TruthTableHash> refine_cache;
  /// kExact: input table -> class representative (first member of its NPN
  /// class ever seen in this shard).
  std::unordered_map<TruthTable, TruthTable, TruthTableHash> rep_cache;
  /// kExact: MSV bucket -> representatives, mirrors classify_exact's buckets.
  std::unordered_map<std::vector<std::uint32_t>, std::vector<TruthTable>, U32VectorHash> exact_buckets;

  /// kExhaustive: every class this shard has canonicalized (semiclass.hpp).
  /// The image_cache above only helps bit-identical repeats; the memo
  /// catches equivalent ones. Per shard, so no lock is ever contended.
  SemiclassMemo semiclass_memo;

  void clear()
  {
    image_cache.clear();
    refine_cache.clear();
    rep_cache.clear();
    exact_buckets.clear();
    semiclass_memo.clear();
  }
};

namespace {

/// Shard-local classification output, parallel to ShardPlan::members[s].
struct LocalResult {
  std::vector<std::uint32_t> class_of;
  std::uint32_t num_classes = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
};

/// Dedup of a shard's functions: uniques in first-occurrence order plus the
/// unique index of every member. Identical tables are always classified
/// together by every classifier, so this is the universal intra-call memo.
/// The uniques point into the classified span, which outlives the Dedup.
struct Dedup {
  std::vector<const TruthTable*> uniques;
  std::vector<std::uint32_t> unique_of;  // per member
};

struct PointeeHash {
  [[nodiscard]] std::size_t operator()(const TruthTable* tt) const noexcept { return tt->hash(); }
};

struct PointeeEqual {
  [[nodiscard]] bool operator()(const TruthTable* a, const TruthTable* b) const noexcept
  {
    return *a == *b;
  }
};

Dedup dedup_members(std::span<const TruthTable> funcs, const std::vector<std::uint32_t>& members)
{
  Dedup d;
  d.unique_of.reserve(members.size());
  std::unordered_map<const TruthTable*, std::uint32_t, PointeeHash, PointeeEqual> seen;
  seen.reserve(members.size());
  for (const auto i : members) {
    const auto [it, inserted] = seen.emplace(&funcs[i], static_cast<std::uint32_t>(d.uniques.size()));
    if (inserted) {
      d.uniques.push_back(&funcs[i]);
    }
    d.unique_of.push_back(it->second);
  }
  return d;
}

/// Groups per-unique keys into dense local class ids (first-occurrence
/// order) and expands them back onto the shard's members.
template <typename Key, typename Hasher>
LocalResult group_by_key(const Dedup& d, std::vector<Key> key_of_unique, std::size_t hits,
                         std::size_t misses)
{
  LocalResult local;
  local.cache_hits = hits;
  local.cache_misses = misses;
  std::unordered_map<Key, std::uint32_t, Hasher> classes;
  classes.reserve(key_of_unique.size());
  std::vector<std::uint32_t> class_of_unique;
  class_of_unique.reserve(key_of_unique.size());
  for (auto& key : key_of_unique) {
    const auto [it, inserted] =
        classes.emplace(std::move(key), static_cast<std::uint32_t>(classes.size()));
    class_of_unique.push_back(it->second);
  }
  local.num_classes = static_cast<std::uint32_t>(classes.size());
  local.class_of.reserve(d.unique_of.size());
  for (const auto u : d.unique_of) {
    local.class_of.push_back(class_of_unique[u]);
  }
  return local;
}

/// Exact canonical form of `tt` through the shard's semiclass memo: a
/// memoized equivalent class answers, else the exact canonicalizer runs
/// once and the class is memoized.
TruthTable canonical_via_semiclass(BatchShardState& state, const TruthTable& tt)
{
  if (tt.num_vars() <= kNpn4MaxVars) {
    // The exact canonicalizer is a single NPN4 norm-table load at these
    // widths — cheaper than the memo's hash + matcher probe.
    return exact_npn_canonical(tt);
  }
  const SemiclassKey key = semiclass_key(tt);
  if (auto hit = state.semiclass_memo.find(tt, key)) {
    return std::move(hit->canonical);
  }
  TruthTable canon = exact_npn_canonical(tt);
  state.semiclass_memo.insert(key, canon);
  return canon;
}

/// Looks up `tt` in `cache` or computes-and-stores via `compute`, counting
/// hits and misses.
template <typename Value, typename Compute>
const Value& memoized(std::unordered_map<TruthTable, Value, TruthTableHash>& cache,
                      const TruthTable& tt, std::size_t& hits, std::size_t& misses,
                      const Compute& compute)
{
  if (const auto it = cache.find(tt); it != cache.end()) {
    ++hits;
    return it->second;
  }
  ++misses;
  return cache.emplace(tt, compute(tt)).first->second;
}

LocalResult classify_shard(ClassifierKind kind, const BatchEngineOptions& options,
                           BatchShardState& state, std::span<const TruthTable> funcs,
                           const std::vector<std::uint32_t>& members)
{
  Dedup d = dedup_members(funcs, members);
  // Duplicate members never pay canonicalization — the first flavor of hit.
  std::size_t hits = members.size() - d.uniques.size();
  std::size_t misses = 0;

  switch (kind) {
    case ClassifierKind::kExact: {
      std::vector<TruthTable> rep_of_unique;
      rep_of_unique.reserve(d.uniques.size());
      for (const TruthTable* u : d.uniques) {
        rep_of_unique.push_back(memoized(state.rep_cache, *u, hits, misses, [&](const TruthTable& tt) {
          auto& reps = state.exact_buckets[build_msv(tt, options.signature)];
          for (const auto& rep : reps) {
            if (npn_equivalent(rep, tt)) {
              return rep;
            }
          }
          reps.push_back(tt);
          return tt;
        }));
      }
      return group_by_key<TruthTable, TruthTableHash>(d, std::move(rep_of_unique), hits, misses);
    }

    case ClassifierKind::kExhaustive:
    case ClassifierKind::kSemiCanonical:
    case ClassifierKind::kCodesign:
    case ClassifierKind::kHierarchical: {
      std::vector<TruthTable> image_of_unique;
      image_of_unique.reserve(d.uniques.size());
      for (const TruthTable* u : d.uniques) {
        image_of_unique.push_back(memoized(state.image_cache, *u, hits, misses, [&](const TruthTable& tt) {
          switch (kind) {
            case ClassifierKind::kExhaustive:
              return canonical_via_semiclass(state, tt);
            case ClassifierKind::kSemiCanonical:
              return semi_canonical(tt);
            case ClassifierKind::kCodesign:
              return codesign_canonical(tt, options.codesign);
            case ClassifierKind::kHierarchical: {
              // Same two-level composition as classify_hierarchical: refine
              // the semi-canonical representative with a budgeted co-designed
              // pass; the refined image is the class key.
              const TruthTable semi = semi_canonical(tt);
              CodesignOptions refine_options;
              refine_options.budget = options.hierarchical_refine_budget;
              std::size_t refine_hits = 0;
              std::size_t refine_misses = 0;
              return memoized(state.refine_cache, semi, refine_hits, refine_misses,
                              [&](const TruthTable& s) { return codesign_canonical(s, refine_options); });
            }
            default:
              throw std::logic_error{"unreachable image kind"};
          }
        }));
      }
      return group_by_key<TruthTable, TruthTableHash>(d, std::move(image_of_unique), hits, misses);
    }

    case ClassifierKind::kFp:
    case ClassifierKind::kFpHashed:
      break;  // never sharded: see classify_fp_kinds
  }
  throw std::logic_error{"unsharded ClassifierKind"};
}

/// The fp kinds: the MSV of every distinct input and its class key are
/// built exactly once, in parallel chunks, then the keys are grouped in
/// first-occurrence order by the sequential classifiers' own loop
/// (MsvGrouper). Grouping distinct inputs in that order gives every
/// duplicate its first occurrence's id, so the result equals classify_fp /
/// classify_fp_hashed by construction. No shards and no memo: the counters
/// count MSVs built (misses) and duplicates (hits). `chunk_latency` gets
/// one sample per chunk.
ClassificationResult classify_fp_kinds(std::span<const TruthTable> funcs, MsvKeyKind kind,
                                       const SignatureConfig& config, WorkerPool& pool,
                                       obs::LatencyHistogram& chunk_latency, BatchEngineStats* stats)
{
  std::vector<std::uint32_t> all(funcs.size());
  std::iota(all.begin(), all.end(), 0U);
  const Dedup d = dedup_members(funcs, all);

  MsvGrouper grouper{kind};
  std::vector<MsvGrouper::Key> keys(d.uniques.size());
  pool.run_chunked(keys.size(), [&](std::size_t begin, std::size_t end) {
    const std::uint64_t t0 = obs::now_ticks();
    for (std::size_t u = begin; u < end; ++u) {
      keys[u] = grouper.key_of(build_msv(*d.uniques[u], config));
    }
    chunk_latency.record_ns(obs::ticks_to_ns(obs::now_ticks() - t0));
  });

  std::vector<std::uint32_t> class_of_unique;
  class_of_unique.reserve(keys.size());
  for (auto& k : keys) {
    class_of_unique.push_back(grouper.class_of(std::move(k)));
  }
  ClassificationResult result;
  result.num_classes = grouper.num_classes();
  result.class_of.reserve(funcs.size());
  for (const auto u : d.unique_of) {
    result.class_of.push_back(class_of_unique[u]);
  }

  if (stats != nullptr) {
    *stats = {};
    stats->threads = pool.num_threads();
    stats->cache_hits = funcs.size() - d.uniques.size();
    stats->cache_misses = d.uniques.size();
  }
  return result;
}

}  // namespace

std::string classifier_kind_name(ClassifierKind kind)
{
  switch (kind) {
    case ClassifierKind::kExact:
      return "exact";
    case ClassifierKind::kExhaustive:
      return "kitty";
    case ClassifierKind::kFp:
      return "fp";
    case ClassifierKind::kFpHashed:
      return "fp-hashed";
    case ClassifierKind::kSemiCanonical:
      return "semi";
    case ClassifierKind::kHierarchical:
      return "hier";
    case ClassifierKind::kCodesign:
      return "codesign";
  }
  return "unknown";
}

std::optional<ClassifierKind> classifier_kind_from_name(std::string_view name)
{
  if (name == "exact") {
    return ClassifierKind::kExact;
  }
  if (name == "kitty" || name == "exhaustive") {
    return ClassifierKind::kExhaustive;
  }
  if (name == "fp") {
    return ClassifierKind::kFp;
  }
  if (name == "fp-hashed") {
    return ClassifierKind::kFpHashed;
  }
  if (name == "semi") {
    return ClassifierKind::kSemiCanonical;
  }
  if (name == "hier") {
    return ClassifierKind::kHierarchical;
  }
  if (name == "codesign") {
    return ClassifierKind::kCodesign;
  }
  return std::nullopt;
}

BatchEngine::BatchEngine(ClassifierKind kind, BatchEngineOptions options)
    : kind_{kind}, options_{options}, pool_{std::make_unique<WorkerPool>(options.num_threads)}
{
  num_shards_ = options_.num_shards != 0 ? options_.num_shards : pool_->num_threads() * 8;
  num_shards_ = std::max<std::size_t>(1, num_shards_);
  shards_.reserve(num_shards_);
  for (std::size_t s = 0; s < num_shards_; ++s) {
    shards_.push_back(std::make_unique<BatchShardState>());
  }
  shard_latency_ = &obs::MetricRegistry::global().histogram(
      "facet_batch_shard_classify_latency", obs::label("classifier", classifier_kind_name(kind)));
}

BatchEngine::~BatchEngine() = default;

std::size_t BatchEngine::num_threads() const noexcept
{
  return pool_->num_threads();
}

void BatchEngine::clear_cache()
{
  for (auto& shard : shards_) {
    shard->clear();
  }
}

ClassificationResult BatchEngine::classify(std::span<const TruthTable> funcs, BatchEngineStats* stats)
{
  if (kind_ == ClassifierKind::kFp || kind_ == ClassifierKind::kFpHashed) {
    const MsvKeyKind key = kind_ == ClassifierKind::kFp ? MsvKeyKind::kFull : MsvKeyKind::kHash128;
    return classify_fp_kinds(funcs, key, options_.signature, *pool_, *shard_latency_, stats);
  }
  const ShardPlan plan = make_shard_plan(funcs, num_shards_, *pool_);

  std::vector<LocalResult> locals(plan.num_shards);
  pool_->run_indexed(plan.num_shards, [&](std::size_t s) {
    if (!plan.members[s].empty()) {
      const std::uint64_t t0 = obs::now_ticks();
      locals[s] = classify_shard(kind_, options_, *shards_[s], funcs, plan.members[s]);
      shard_latency_->record_ns(obs::ticks_to_ns(obs::now_ticks() - t0));
    }
  });

  // Merge: renumber (shard, local id) pairs into dense global ids by first
  // occurrence in input order — exactly the order every sequential
  // classifier assigns, so the merged result matches it bit for bit.
  constexpr std::uint32_t kUnassigned = 0xffffffffU;
  ClassificationResult result;
  result.class_of.resize(funcs.size());
  std::vector<std::vector<std::uint32_t>> remap(plan.num_shards);
  for (std::size_t s = 0; s < plan.num_shards; ++s) {
    remap[s].assign(locals[s].num_classes, kUnassigned);
  }
  std::vector<std::size_t> cursor(plan.num_shards, 0);
  std::uint32_t next_global = 0;
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    const auto s = plan.shard_of[i];
    const auto local_id = locals[s].class_of[cursor[s]++];
    auto& global_id = remap[s][local_id];
    if (global_id == kUnassigned) {
      global_id = next_global++;
    }
    result.class_of[i] = global_id;
  }
  result.num_classes = next_global;

  if (stats != nullptr) {
    *stats = {};
    stats->threads = pool_->num_threads();
    stats->max_shard_size = plan.max_shard_size();
    for (std::size_t s = 0; s < plan.num_shards; ++s) {
      stats->shards_used += plan.members[s].empty() ? 0 : 1;
      stats->cache_hits += locals[s].cache_hits;
      stats->cache_misses += locals[s].cache_misses;
    }
  }
  return result;
}

ClassificationResult classify_batch(std::span<const TruthTable> funcs, ClassifierKind kind,
                                    const BatchEngineOptions& options, BatchEngineStats* stats)
{
  BatchEngine engine{kind, options};
  return engine.classify(funcs, stats);
}

}  // namespace facet
