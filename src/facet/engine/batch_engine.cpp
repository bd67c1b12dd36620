#include "facet/engine/batch_engine.hpp"

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "facet/engine/work_queue.hpp"
#include "facet/npn/exact_canon.hpp"
#include "facet/npn/exact_classifier.hpp"
#include "facet/npn/fp_classifier.hpp"
#include "facet/npn/npn4_table.hpp"
#include "facet/npn/semi_canonical.hpp"
#include "facet/npn/semiclass.hpp"
#include "facet/obs/clock.hpp"
#include "facet/obs/registry.hpp"
#include "facet/util/hash.hpp"

namespace facet {

namespace {

/// The distinct tables of a span in first-occurrence order, plus the
/// distinct index of every table. The uniques point into the span, which
/// outlives the Dedup.
struct Dedup {
  std::vector<const TruthTable*> uniques;
  std::vector<std::uint32_t> unique_of;  // per table of the span
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

Dedup dedup_members(std::span<const TruthTable> funcs)
{
  Dedup d;
  d.unique_of.reserve(funcs.size());
  std::unordered_map<const TruthTable*, std::uint32_t, PointeeHash, PointeeEqual> seen;
  seen.reserve(funcs.size());
  for (const TruthTable& f : funcs) {
    const auto [it, inserted] = seen.emplace(&f, static_cast<std::uint32_t>(d.uniques.size()));
    if (inserted) {
      d.uniques.push_back(&f);
    }
    d.unique_of.push_back(it->second);
  }
  return d;
}

/// Runs fn(i) for every i in [0, count) in parallel chunks on `pool`, with
/// one latency sample per chunk.
template <typename Fn>
void for_each_chunked(WorkerPool& pool, obs::LatencyHistogram& latency, std::size_t count, const Fn& fn)
{
  pool.run_chunked(count, [&](std::size_t begin, std::size_t end) {
    const std::uint64_t t0 = obs::now_ticks();
    for (std::size_t i = begin; i < end; ++i) {
      fn(i);
    }
    latency.record_ns(obs::ticks_to_ns(obs::now_ticks() - t0));
  });
}

/// The key of every distinct table, `key_of(table)`, computed in parallel.
template <typename Key, typename KeyOf>
std::vector<Key> keys_of(WorkerPool& pool, obs::LatencyHistogram& latency,
                         const std::vector<const TruthTable*>& uniques, const KeyOf& key_of)
{
  std::vector<Key> keys(uniques.size());
  for_each_chunked(pool, latency, keys.size(), [&](std::size_t u) { keys[u] = key_of(*uniques[u]); });
  return keys;
}

/// Feeds `keys` to `grouper` in order: the class of key k is the dense id
/// of its first occurrence.
template <typename Grouper, typename Key>
ClassificationResult group_in_order(Grouper& grouper, std::vector<Key> keys)
{
  ClassificationResult result;
  result.class_of.reserve(keys.size());
  for (auto& key : keys) {
    result.class_of.push_back(grouper.class_of(std::move(key)));
  }
  result.num_classes = grouper.num_classes();
  return result;
}

/// The classes of a Dedup's uniques, copied onto every table of its span.
ClassificationResult expand(const ClassificationResult& of_uniques,
                            const std::vector<std::uint32_t>& unique_of)
{
  ClassificationResult result;
  result.num_classes = of_uniques.num_classes;
  result.class_of.reserve(unique_of.size());
  for (const auto u : unique_of) {
    result.class_of.push_back(of_uniques.class_of[u]);
  }
  return result;
}

/// Exact canonical form of `tt` through the semiclass memo: a memoized
/// equivalent class answers, else the exact canonicalizer runs once and
/// the class is memoized.
TruthTable canonical_via_semiclass(SemiclassMemo& memo, const TruthTable& tt)
{
  if (tt.num_vars() <= kNpn4MaxVars) {
    // The exact canonicalizer is a single NPN4 norm-table load at these
    // widths — cheaper than the memo's hash + matcher probe.
    return exact_npn_canonical(tt);
  }
  const SemiclassKey key = semiclass_key(tt);
  if (auto hit = memo.find(tt, key)) {
    return std::move(hit->canonical);
  }
  TruthTable canon = exact_npn_canonical(tt);
  memo.insert(key, canon);
  return canon;
}

/// kExact: classify_exact's buckets and matcher calls, with the buckets run
/// in parallel. The distinct tables are bucketed by MSV in first-occurrence
/// order; each bucket matches its members in input order through its own
/// ExactBucket. The returned key of a distinct table, (bucket << 32 |
/// representative), is equal for two tables exactly when classify_exact
/// puts them in one class.
std::vector<std::uint64_t> exact_keys(WorkerPool& pool, obs::LatencyHistogram& latency,
                                      const std::vector<const TruthTable*>& uniques,
                                      const SignatureConfig& config)
{
  FirstOccurrenceGrouper<std::vector<std::uint32_t>, U32VectorHash> buckets;
  const std::vector<std::uint32_t> bucket_of =
      group_in_order(buckets, keys_of<std::vector<std::uint32_t>>(
                                  pool, latency, uniques,
                                  [&](const TruthTable& tt) { return build_msv(tt, config); }))
          .class_of;

  std::vector<std::vector<std::uint32_t>> members(buckets.num_classes());  // ascending
  for (std::uint32_t u = 0; u < uniques.size(); ++u) {
    members[bucket_of[u]].push_back(u);
  }

  std::vector<std::uint64_t> keys(uniques.size());
  for_each_chunked(pool, latency, members.size(), [&](std::size_t b) {
    ExactBucket reps;
    for (const std::uint32_t u : members[b]) {
      keys[u] = (static_cast<std::uint64_t>(b) << 32) | reps.match(*uniques[u]);
    }
  });
  return keys;
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
    : kind_{kind},
      options_{options},
      pool_{std::make_unique<WorkerPool>(options.num_threads)},
      memo_{std::make_unique<SemiclassMemo>()}
{
  chunk_latency_ = &obs::MetricRegistry::global().histogram(
      "facet_batch_shard_classify_latency", obs::label("classifier", classifier_kind_name(kind)));
}

BatchEngine::~BatchEngine() = default;

std::size_t BatchEngine::num_threads() const noexcept
{
  return pool_->num_threads();
}

void BatchEngine::clear_cache()
{
  memo_->clear();
}

ClassificationResult BatchEngine::classify(std::span<const TruthTable> funcs, BatchEngineStats* stats)
{
  const Dedup d = dedup_members(funcs);
  WorkerPool& pool = *pool_;
  obs::LatencyHistogram& latency = *chunk_latency_;
  // Classes of `tables` keyed by their image under `image`.
  const auto image_classes = [&](const std::vector<const TruthTable*>& tables, const auto& image) {
    FirstOccurrenceGrouper<TruthTable, TruthTableHash> grouper;
    return group_in_order(grouper, keys_of<TruthTable>(pool, latency, tables, image));
  };

  ClassificationResult of_uniques;
  switch (kind_) {
    case ClassifierKind::kExact: {
      FirstOccurrenceGrouper<std::uint64_t> grouper;
      of_uniques = group_in_order(grouper, exact_keys(pool, latency, d.uniques, options_.signature));
      break;
    }
    case ClassifierKind::kExhaustive:
      of_uniques = image_classes(d.uniques,
                                 [&](const TruthTable& tt) { return canonical_via_semiclass(*memo_, tt); });
      break;
    case ClassifierKind::kFp:
    case ClassifierKind::kFpHashed: {
      MsvGrouper grouper{kind_ == ClassifierKind::kFp ? MsvKeyKind::kFull : MsvKeyKind::kHash128};
      of_uniques = group_in_order(grouper, keys_of<MsvGrouper::Key>(pool, latency, d.uniques,
                                                                   [&](const TruthTable& tt) {
                                                                     return grouper.key_of(
                                                                         build_msv(tt, options_.signature));
                                                                   }));
      break;
    }
    case ClassifierKind::kSemiCanonical:
      of_uniques = image_classes(d.uniques, [](const TruthTable& tt) { return semi_canonical(tt); });
      break;
    case ClassifierKind::kCodesign:
      of_uniques = image_classes(
          d.uniques, [&](const TruthTable& tt) { return codesign_canonical(tt, options_.codesign); });
      break;
    case ClassifierKind::kHierarchical: {
      // classify_hierarchical's two levels: the semi image of every
      // distinct input, then the budgeted codesign refinement of every
      // distinct semi image, which is the class key.
      const std::vector<TruthTable> semi = keys_of<TruthTable>(
          pool, latency, d.uniques, [](const TruthTable& tt) { return semi_canonical(tt); });
      const Dedup ds = dedup_members(semi);
      CodesignOptions refine;
      refine.budget = options_.hierarchical_refine_budget;
      of_uniques = expand(
          image_classes(ds.uniques, [&](const TruthTable& tt) { return codesign_canonical(tt, refine); }),
          ds.unique_of);
      break;
    }
  }

  if (stats != nullptr) {
    *stats = {};
    stats->threads = pool.num_threads();
    stats->cache_hits = funcs.size() - d.uniques.size();
    stats->cache_misses = d.uniques.size();
  }
  return expand(of_uniques, d.unique_of);
}

ClassificationResult classify_batch(std::span<const TruthTable> funcs, ClassifierKind kind,
                                    const BatchEngineOptions& options, BatchEngineStats* stats)
{
  BatchEngine engine{kind, options};
  return engine.classify(funcs, stats);
}

}  // namespace facet
