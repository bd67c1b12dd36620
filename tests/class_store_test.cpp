/// Tests of the persistent NPN class store: build / save / load round-trips
/// against live BatchEngine classification on randomized datasets, corrupted
/// and version-mismatched file rejection, the hot cache, the semiclass memo
/// tier and the live fallback tier.

#include "facet/store/class_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "facet/npn/exact_canon.hpp"
#include "facet/npn/exact_classifier.hpp"
#include "facet/npn/transform.hpp"
#include "facet/store/store_builder.hpp"
#include "facet/store/store_format.hpp"
#include "facet/tt/tt_generate.hpp"
#include "facet/tt/tt_transform.hpp"

namespace facet {

/// Runs compact()'s merge-and-swap step on a tier pin the test chose, so
/// appends and flushes can land deterministically mid-compaction.
class ClassStoreTestAccess {
 public:
  static void fold_compaction(ClassStore& store, const std::string& path,
                              const std::shared_ptr<const TierSnapshot>& pinned)
  {
    store.fold_compaction(path, pinned);
  }
};

namespace {

/// A dataset with deliberately multi-member classes: random base functions
/// plus random NPN images of them, shuffled.
std::vector<TruthTable> make_npn_workload(int n, std::size_t bases, std::size_t images_per_base,
                                          std::uint64_t seed)
{
  std::mt19937_64 rng{seed};
  std::vector<TruthTable> funcs;
  for (std::size_t b = 0; b < bases; ++b) {
    const TruthTable base = tt_random(n, rng);
    funcs.push_back(base);
    for (std::size_t k = 0; k < images_per_base; ++k) {
      funcs.push_back(apply_transform(base, NpnTransform::random(n, rng)));
    }
  }
  std::shuffle(funcs.begin(), funcs.end(), rng);
  return funcs;
}

std::string serialize(const ClassStore& store)
{
  std::ostringstream os;
  store.save(os);
  return os.str();
}

ClassStore deserialize(const std::string& bytes, ClassStoreOptions options = {})
{
  std::istringstream is{bytes};
  return ClassStore::load(is, options);
}

class StoreRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(StoreRoundTrip, BuildMatchesBatchEngineAndTransformsWitness)
{
  const int n = GetParam();
  const auto funcs = make_npn_workload(n, 40, 4, 0x51ULL + static_cast<unsigned>(n));

  StoreBuildOptions build_options;
  build_options.num_threads = 2;
  ClassStore store = build_class_store(funcs, build_options);

  const ClassificationResult expected = classify_exhaustive(funcs);
  EXPECT_EQ(store.num_classes(), expected.num_classes);
  EXPECT_EQ(store.num_records(), expected.num_classes);

  const auto sizes = expected.class_sizes();
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    const auto result = store.lookup(funcs[i]);
    ASSERT_TRUE(result.has_value()) << "function " << i << " must be known";
    EXPECT_TRUE(result->known);
    // Identical class-id mapping as the live engine, and a sound witness.
    EXPECT_EQ(result->class_id, expected.class_of[i]);
    EXPECT_EQ(apply_transform(funcs[i], result->to_representative), result->representative);
  }
  for (const auto& record : store.records()) {
    EXPECT_EQ(apply_transform(record.representative, record.rep_to_canonical), record.canonical);
    EXPECT_EQ(exact_npn_canonical(record.representative), record.canonical);
    EXPECT_EQ(record.class_size, sizes[record.class_id]);
  }
}

TEST_P(StoreRoundTrip, SaveLoadPreservesEveryLookup)
{
  const int n = GetParam();
  const auto funcs = make_npn_workload(n, 30, 3, 0x91ULL + static_cast<unsigned>(n));
  const ClassStore built = build_class_store(funcs, {});
  ClassStore loaded = deserialize(serialize(built));

  EXPECT_EQ(loaded.num_vars(), built.num_vars());
  EXPECT_EQ(loaded.num_classes(), built.num_classes());
  ASSERT_EQ(loaded.num_records(), built.num_records());
  for (std::size_t r = 0; r < built.records().size(); ++r) {
    const StoreRecord& a = built.records()[r];
    const StoreRecord& b = loaded.records()[r];
    EXPECT_EQ(a.canonical, b.canonical);
    EXPECT_EQ(a.representative, b.representative);
    EXPECT_EQ(a.rep_to_canonical, b.rep_to_canonical);
    EXPECT_EQ(a.class_id, b.class_id);
    EXPECT_EQ(a.class_size, b.class_size);
  }
  for (const auto& f : funcs) {
    const auto before = built.lookup(f);
    const auto after = loaded.lookup(f);
    ASSERT_TRUE(before.has_value());
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(before->class_id, after->class_id);
    EXPECT_EQ(before->representative, after->representative);
    EXPECT_EQ(apply_transform(f, after->to_representative), after->representative);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths3To6, StoreRoundTrip, ::testing::Range(3, 7));

TEST(ClassStore, FileRoundTripThroughDisk)
{
  const auto funcs = make_npn_workload(4, 25, 3, 0xd15cULL);
  const ClassStore built = build_class_store(funcs, {});
  const std::string path = ::testing::TempDir() + "class_store_test_roundtrip.fcs";
  built.save(path);
  const ClassStore loaded = ClassStore::load(path);
  EXPECT_EQ(loaded.num_records(), built.num_records());
  for (const auto& f : funcs) {
    const auto result = loaded.lookup(f);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(apply_transform(f, result->to_representative), result->representative);
  }
  std::remove(path.c_str());
}

TEST(ClassStore, LiveFallbackMatchesSequentialClassifierOnEmptyStore)
{
  // A store that starts empty and learns every class through the live tier
  // must reproduce the sequential classifier's ids exactly.
  const int n = 4;
  const auto funcs = make_npn_workload(n, 30, 3, 0xf00dULL);
  const ClassificationResult expected = classify_exhaustive(funcs);

  ClassStore store{n};
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    const StoreLookupResult result = store.lookup_or_classify(funcs[i]);
    EXPECT_EQ(result.class_id, expected.class_of[i]) << "function " << i;
    EXPECT_EQ(apply_transform(funcs[i], result.to_representative), result.representative);
  }
  EXPECT_EQ(store.num_classes(), expected.num_classes);
  // Nothing was appended, so nothing persists.
  EXPECT_EQ(store.num_records(), 0u);
}

TEST(ClassStore, AppendOnMissPersistsAcrossSaveLoad)
{
  const int n = 4;
  std::mt19937_64 rng{0xabcdULL};
  const auto known = make_npn_workload(n, 10, 2, 0x7777ULL);
  ClassStore store = build_class_store(known, {});
  const auto base_classes = store.num_classes();

  // Collect a function whose class is genuinely absent from the store.
  TruthTable novel{n};
  for (;;) {
    novel = tt_random(n, rng);
    if (!store.lookup(novel).has_value()) {
      break;
    }
  }

  const StoreLookupResult miss = store.lookup_or_classify(novel, /*append_on_miss=*/true);
  EXPECT_FALSE(miss.known);
  EXPECT_EQ(miss.source, LookupSource::kLive);
  EXPECT_EQ(miss.class_id, base_classes);
  EXPECT_EQ(store.num_appended(), 1u);

  // An NPN-equivalent query now resolves from the store, same id.
  const TruthTable image = apply_transform(novel, NpnTransform::random(n, rng));
  const auto hit = store.lookup(image);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->known);
  EXPECT_EQ(hit->class_id, miss.class_id);
  EXPECT_EQ(apply_transform(image, hit->to_representative), hit->representative);

  // And it survives a save/load cycle.
  const ClassStore reloaded = deserialize(serialize(store));
  EXPECT_EQ(reloaded.num_records(), store.num_records());
  const auto persisted = reloaded.lookup(novel);
  ASSERT_TRUE(persisted.has_value());
  EXPECT_EQ(persisted->class_id, miss.class_id);
}

TEST(ClassStore, TransientMissIdsAreStableWithinSession)
{
  const int n = 4;
  std::mt19937_64 rng{0x1234ULL};
  ClassStore store{n};
  const TruthTable f = tt_random(n, rng);
  const TruthTable g = apply_transform(f, NpnTransform::random(n, rng));

  const auto first = store.lookup_or_classify(f);
  const auto second = store.lookup_or_classify(g);
  EXPECT_EQ(first.class_id, second.class_id);
  EXPECT_FALSE(second.known);
  // The first query of the class is its representative.
  EXPECT_EQ(second.representative, f);
  EXPECT_EQ(apply_transform(g, second.to_representative), f);
}

TEST(ClassStore, RejectsCorruptedTruncatedAndMismatchedFiles)
{
  const auto funcs = make_npn_workload(4, 15, 2, 0xbeefULL);
  const ClassStore built = build_class_store(funcs, {});
  const std::string good = serialize(built);

  // Baseline sanity: the pristine bytes load.
  EXPECT_NO_THROW(deserialize(good));

  // Flipped payload byte -> checksum mismatch.
  {
    std::string bad = good;
    bad[kStoreHeaderBytes + 5] = static_cast<char>(bad[kStoreHeaderBytes + 5] ^ 0x40);
    EXPECT_THROW(deserialize(bad), StoreFormatError);
  }
  // Truncated payload and truncated header.
  EXPECT_THROW(deserialize(good.substr(0, good.size() - 7)), StoreFormatError);
  EXPECT_THROW(deserialize(good.substr(0, kStoreHeaderBytes / 2)), StoreFormatError);
  // Trailing junk.
  EXPECT_THROW(deserialize(good + "x"), StoreFormatError);
  // Bad magic.
  {
    std::string bad = good;
    bad[0] = 'X';
    EXPECT_THROW(deserialize(bad), StoreFormatError);
  }
  // Version mismatch (byte 8 is the low byte of the version field).
  {
    std::string bad = good;
    bad[8] = static_cast<char>(kStoreVersion + 1);
    try {
      deserialize(bad);
      FAIL() << "version mismatch must throw";
    } catch (const StoreFormatError& e) {
      EXPECT_NE(std::string{e.what()}.find("version"), std::string::npos);
    }
  }
  // Empty stream.
  EXPECT_THROW(deserialize(""), StoreFormatError);
}

TEST(ClassStore, HotCacheServesRepeatsAndEvicts)
{
  // Width 5: this test pins cache/memo/index tier attribution, which the
  // NPN4 table tier answers wholesale at width <= 4.
  const int n = 5;
  const auto funcs = make_npn_workload(n, 20, 2, 0xcafeULL);
  ClassStoreOptions options;
  options.hot_cache_capacity = 4;
  options.hot_cache_shards = 1;
  StoreBuildOptions build_options;
  build_options.store = options;
  ClassStore store = build_class_store(funcs, build_options);

  const auto cold = store.lookup(funcs[0]);
  ASSERT_TRUE(cold.has_value());
  EXPECT_EQ(cold->source, LookupSource::kIndex);
  const auto warm = store.lookup(funcs[0]);
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(warm->source, LookupSource::kHotCache);
  EXPECT_EQ(warm->class_id, cold->class_id);

  // Push 4 other distinct functions through the single-shard cache (cache
  // keys are exact tables, so distinctness guarantees 4 insertions):
  // funcs[0] evicts.
  std::vector<TruthTable> pushed;
  for (std::size_t i = 1; i < funcs.size() && pushed.size() < 4; ++i) {
    if (funcs[i] != funcs[0] &&
        std::find(pushed.begin(), pushed.end(), funcs[i]) == pushed.end()) {
      (void)store.lookup(funcs[i]);
      pushed.push_back(funcs[i]);
    }
  }
  ASSERT_EQ(pushed.size(), 4u);
  // Evicted from the hot cache — but the cold kIndex lookup memoized the
  // class, so the repeat resolves through the semiclass memo, one tier down.
  const auto evicted = store.lookup(funcs[0]);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->source, LookupSource::kMemo);
  EXPECT_EQ(evicted->class_id, cold->class_id);

  const HotCacheStats stats = store.hot_cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.entries, 4u);

  store.clear_hot_cache();
  EXPECT_EQ(store.hot_cache_stats().entries, 0u);
}

TEST(ClassStore, SemiclassMemoServesEquivalentsWithoutRecanonicalizing)
{
  // Width 5: below it the NPN4 table replaces the memo and index tiers.
  const int n = 5;
  std::mt19937_64 rng{0x5e111ULL};
  const auto funcs = make_npn_workload(n, 20, 2, 0x5e11ULL);
  StoreBuildOptions build_options;
  // Disable the hot cache so tier attribution and the canonicalization
  // counter are observable without cache interference.
  build_options.store.hot_cache_capacity = 0;
  ClassStore store = build_class_store(funcs, build_options);

  const TruthTable f = funcs[0];
  const auto first = store.lookup(f);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->source, LookupSource::kIndex);
  EXPECT_EQ(store.num_canonicalizations(), 1u);
  EXPECT_EQ(store.num_memo_hits(), 0u);

  // A distinct NPN image of f must resolve through the memo: same id, no
  // second exact canonicalization.
  TruthTable g{n};
  do {
    g = apply_transform(f, NpnTransform::random(n, rng));
  } while (g == f);
  const auto second = store.lookup(g);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->source, LookupSource::kMemo);
  EXPECT_TRUE(second->known);
  EXPECT_EQ(second->class_id, first->class_id);
  EXPECT_EQ(apply_transform(g, second->to_representative), second->representative);
  EXPECT_EQ(store.num_canonicalizations(), 1u);
  EXPECT_EQ(store.num_memo_hits(), 1u);
  EXPECT_GE(store.memo_entries(), 1u);
}

TEST(ClassStore, MemoDisabledFallsBackToExactCanonicalization)
{
  const int n = 5;
  std::mt19937_64 rng{0x0ffULL};
  const auto funcs = make_npn_workload(n, 20, 2, 0x5e11ULL);
  StoreBuildOptions build_options;
  build_options.store.hot_cache_capacity = 0;
  build_options.store.semiclass_memo_capacity = 0;
  ClassStore store = build_class_store(funcs, build_options);

  const TruthTable f = funcs[0];
  TruthTable g{n};
  do {
    g = apply_transform(f, NpnTransform::random(n, rng));
  } while (g == f);

  const auto first = store.lookup(f);
  const auto second = store.lookup(g);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->source, LookupSource::kIndex);
  EXPECT_EQ(second->source, LookupSource::kIndex);
  EXPECT_EQ(second->class_id, first->class_id);
  EXPECT_EQ(store.num_canonicalizations(), 2u);
  EXPECT_EQ(store.num_memo_hits(), 0u);
  EXPECT_EQ(store.memo_entries(), 0u);
}

TEST(ClassStore, TransientMissesAreNeverMemoized)
{
  // A non-appending miss reports known=false. If the memo learned it, a
  // later equivalent query would claim known=true for a class the store
  // never persisted — so transient misses must bypass the memo entirely.
  // Width 5: at width <= 4 the table answers first and the memo never runs.
  const int n = 5;
  std::mt19937_64 rng{0x404ULL};
  ClassStore store{n};
  const TruthTable f = tt_random(n, rng);
  TruthTable g{n};
  do {
    g = apply_transform(f, NpnTransform::random(n, rng));
  } while (g == f);

  const auto first = store.lookup_or_classify(f, /*append_on_miss=*/false);
  EXPECT_EQ(first.source, LookupSource::kLive);
  EXPECT_FALSE(first.known);
  const auto second = store.lookup_or_classify(g, /*append_on_miss=*/false);
  EXPECT_EQ(second.source, LookupSource::kLive);
  EXPECT_FALSE(second.known);
  EXPECT_EQ(second.class_id, first.class_id);
  // Both queries reached the memo tier, so the two zeros below observe it.
  EXPECT_EQ(store.num_memo_probes(), 2u);
  EXPECT_EQ(store.num_memo_hits(), 0u);
  EXPECT_EQ(store.memo_entries(), 0u);
}

TEST(ClassStore, AppendedClassesAreServedFromTheMemo)
{
  // Width 5: at width <= 4 the appended class would be served from its
  // table slot rather than the memo this test observes.
  const int n = 5;
  std::mt19937_64 rng{0xadd5ULL};
  ClassStoreOptions options;
  options.hot_cache_capacity = 0;
  ClassStore store{n, options};
  const TruthTable f = tt_random(n, rng);
  TruthTable g{n};
  do {
    g = apply_transform(f, NpnTransform::random(n, rng));
  } while (g == f);

  const auto appended = store.lookup_or_classify(f, /*append_on_miss=*/true);
  EXPECT_EQ(appended.source, LookupSource::kLive);
  EXPECT_FALSE(appended.known);
  // The appended record was memoized, so the equivalent image skips both
  // the index probe's canonicalization and the live tier.
  const auto served = store.lookup_or_classify(g, /*append_on_miss=*/true);
  EXPECT_EQ(served.source, LookupSource::kMemo);
  EXPECT_TRUE(served.known);
  EXPECT_EQ(served.class_id, appended.class_id);
  EXPECT_EQ(apply_transform(g, served.to_representative), served.representative);
  EXPECT_EQ(store.num_memo_hits(), 1u);
  EXPECT_EQ(store.num_appended(), 1u);
}

TEST(ClassStore, LookupAndLookupOrClassifyShareOneTierWalk)
{
  // lookup() and lookup_or_classify(f, false) run one tier walk, so two
  // identically built stores fed the same queries agree field for field at
  // every step, whichever tier answers: the table at width <= 4, the index,
  // memo and cache above.
  for (int n = 0; n <= 6; ++n) {
    const auto funcs = make_npn_workload(n, 12, 3, 0x9a11ULL + static_cast<std::uint64_t>(n));
    ClassStore by_lookup = build_class_store(funcs, {});
    ClassStore by_classify = build_class_store(funcs, {});
    by_lookup.clear_hot_cache();
    by_classify.clear_hot_cache();
    std::set<LookupSource> sources;
    // Each function twice: the first member of a class resolves through the
    // index, a later image of it through the memo, and a repeat from the
    // cache.
    for (int pass = 0; pass < 2; ++pass) {
      for (const TruthTable& f : funcs) {
        const auto a = by_lookup.lookup(f);
        const StoreLookupResult b = by_classify.lookup_or_classify(f, /*append_on_miss=*/false);
        ASSERT_TRUE(a.has_value()) << "n=" << n;
        EXPECT_EQ(a->class_id, b.class_id) << "n=" << n;
        EXPECT_EQ(a->source, b.source) << "n=" << n;
        EXPECT_TRUE(a->known) << "n=" << n;
        EXPECT_TRUE(b.known) << "n=" << n;
        EXPECT_EQ(a->representative, b.representative) << "n=" << n;
        EXPECT_EQ(a->to_representative, b.to_representative) << "n=" << n;
        sources.insert(b.source);
      }
    }
    const std::set<LookupSource> expected =
        n <= 4 ? std::set<LookupSource>{LookupSource::kTable}
               : std::set<LookupSource>{LookupSource::kHotCache, LookupSource::kMemo,
                                        LookupSource::kIndex};
    EXPECT_EQ(sources, expected) << "n=" << n;

    // A class the store does not hold: lookup() misses and lookup_or_classify
    // classifies it live. A repeat stays unknown through both, because a
    // transient miss fills no slot, cache entry or memo entry.
    ClassStore empty{n};
    for (int repeat = 0; repeat < 2; ++repeat) {
      EXPECT_FALSE(empty.lookup(funcs.front()).has_value()) << "n=" << n;
      const StoreLookupResult live =
          empty.lookup_or_classify(funcs.front(), /*append_on_miss=*/false);
      EXPECT_EQ(live.source, LookupSource::kLive) << "n=" << n;
      EXPECT_FALSE(live.known) << "n=" << n;
      EXPECT_EQ(live.class_id, 0u) << "n=" << n;
    }
    EXPECT_EQ(empty.hot_cache_stats().entries, 0u) << "n=" << n;
    EXPECT_EQ(empty.memo_entries(), 0u) << "n=" << n;
    EXPECT_EQ(empty.num_records(), 0u) << "n=" << n;
  }
}

TEST(ClassStore, MemoAssistedLearningMatchesSequentialClassifier)
{
  // An empty store learning a multi-image workload through the append path
  // must assign exactly the sequential classifier's ids even when most
  // queries short-circuit through the memo.
  const int n = 5;
  const auto funcs = make_npn_workload(n, 25, 5, 0x1eaf7ULL);
  const ClassificationResult expected = classify_exhaustive(funcs);

  ClassStoreOptions options;
  options.hot_cache_capacity = 0;
  ClassStore store{n, options};
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    const auto result = store.lookup_or_classify(funcs[i], /*append_on_miss=*/true);
    EXPECT_EQ(result.class_id, expected.class_of[i]) << "function " << i;
    EXPECT_EQ(apply_transform(funcs[i], result.to_representative), result.representative);
  }
  EXPECT_EQ(store.num_classes(), expected.num_classes);
  EXPECT_EQ(store.num_appended(), expected.num_classes);
  // Every image beyond the first of each class can be served by the memo,
  // so at most one exact canonicalization per class is unavoidable; with
  // 5 images per base the memo must have absorbed a large share.
  EXPECT_GT(store.num_memo_hits(), 0u);
  EXPECT_LT(store.num_canonicalizations(), funcs.size());
}

TEST(ClassStore, WidthMismatchesAreRejected)
{
  ClassStore store{4};
  EXPECT_THROW((void)store.lookup(TruthTable{5}), std::invalid_argument);
  EXPECT_THROW((void)store.lookup_or_classify(TruthTable{3}), std::invalid_argument);
}

/// Appends `count` genuinely-new classes to `store`; returns them.
std::vector<TruthTable> append_novel(ClassStore& store, std::size_t count, std::uint64_t seed)
{
  std::mt19937_64 rng{seed};
  std::vector<TruthTable> appended;
  while (appended.size() < count) {
    const TruthTable f = tt_random(store.num_vars(), rng);
    if (!store.lookup(f).has_value()) {
      (void)store.lookup_or_classify(f, /*append_on_miss=*/true);
      appended.push_back(f);
    }
  }
  return appended;
}

/// The three-phase compaction: pin -> off-lock merge and write -> gated
/// swap. Appends and flushes that land between the pin and the swap — the
/// live-traffic case — must survive it, on disk and in memory.
TEST(ClassStore, ThreePhaseCompactionKeepsConcurrentAppends)
{
  const int n = 4;
  const std::string path = ::testing::TempDir() + "three_phase.fcs";
  const std::string dlog = ClassStore::delta_log_path(path);
  build_class_store(make_npn_workload(n, 12, 2, 0x3f01ULL), {}).save(path);

  for (const bool use_mmap : {false, true}) {
    if (use_mmap && !mmap_supported()) {
      continue;
    }
    std::remove(dlog.c_str());
    StoreOpenOptions open_options;
    open_options.use_mmap = use_mmap;
    ClassStore store = ClassStore::open(path, open_options);
    const std::size_t base_records = store.num_records();

    // Two sealed runs before the snapshot...
    const auto first = append_novel(store, 3, 0x3f02ULL + (use_mmap ? 1 : 0));
    ASSERT_EQ(store.flush_delta(dlog), 3u);
    const auto second = append_novel(store, 2, 0x3f03ULL + (use_mmap ? 2 : 0));
    ASSERT_EQ(store.flush_delta(dlog), 2u);
    ASSERT_EQ(store.num_delta_segments(), 2u);

    const std::shared_ptr<const TierSnapshot> pinned = store.tier_snapshot();
    EXPECT_EQ(pinned->deltas.size(), 2u);

    // ...then traffic lands while the merge "runs": one more sealed run and
    // one unflushed memtable append.
    const auto third = append_novel(store, 2, 0x3f04ULL + (use_mmap ? 3 : 0));
    ASSERT_EQ(store.flush_delta(dlog), 2u);
    const auto fourth = append_novel(store, 1, 0x3f05ULL + (use_mmap ? 4 : 0));

    ClassStoreTestAccess::fold_compaction(store, path, pinned);

    EXPECT_EQ(store.num_compactions(), 1u);
    EXPECT_EQ(store.num_delta_segments(), 1u) << "the post-snapshot run must survive";
    EXPECT_EQ(store.num_appended(), 1u) << "the memtable must survive";
    EXPECT_EQ(store.base_segment().size(), base_records + first.size() + second.size());
    EXPECT_EQ(store.mmap_backed(), use_mmap);

    // Every class — compacted, surviving run, memtable — still answers with
    // its original id, in memory and after a fresh open of the swapped
    // files (base + rewritten delta log).
    ClassStore reopened = ClassStore::open(path, open_options);
    EXPECT_EQ(reopened.base_segment().size(), base_records + first.size() + second.size());
    EXPECT_EQ(reopened.num_delta_records(), third.size());
    for (const auto& group : {first, second, third}) {
      for (const auto& f : group) {
        const auto live = store.lookup(f);
        const auto durable = reopened.lookup(f);
        ASSERT_TRUE(live.has_value());
        ASSERT_TRUE(durable.has_value());
        EXPECT_EQ(live->class_id, durable->class_id);
        EXPECT_TRUE(durable->known);
      }
    }
    EXPECT_TRUE(store.lookup(fourth.front()).has_value());
    // The memtable append was never flushed, so it is (correctly) not on
    // disk yet; flushing now must append cleanly to the rewritten log.
    EXPECT_FALSE(reopened.lookup(fourth.front()).has_value());
    ASSERT_EQ(store.flush_delta(dlog), 1u);
    ClassStore reflushed = ClassStore::open(path, open_options);
    EXPECT_TRUE(reflushed.lookup(fourth.front()).has_value());
  }
  std::remove(path.c_str());
  std::remove(dlog.c_str());
}

TEST(ClassStore, CompactFoldsEveryTierAndClearsTheLog)
{
  const int n = 5;
  const std::string path = ::testing::TempDir() + "compact_report.fcs";
  const std::string dlog = ClassStore::delta_log_path(path);
  std::remove(dlog.c_str());
  build_class_store(make_npn_workload(n, 10, 2, 0x3f20ULL), {}).save(path);
  ClassStore store = ClassStore::open(path);
  const std::size_t base_records = store.num_records();

  const auto flushed = append_novel(store, 3, 0x3f21ULL);
  ASSERT_EQ(store.flush_delta(dlog), 3u);
  const std::uint64_t logged_bytes = ClassStore::delta_log_size(dlog);
  const auto pending = append_novel(store, 2, 0x3f22ULL);

  const CompactionReport report = store.compact(path);
  EXPECT_EQ(report.flushed, pending.size());
  EXPECT_EQ(report.runs, 2u);
  EXPECT_EQ(report.records, flushed.size() + pending.size());
  EXPECT_GT(report.bytes, logged_bytes);
  EXPECT_EQ(store.num_compactions(), 1u);
  EXPECT_EQ(store.num_delta_segments(), 0u);
  EXPECT_EQ(store.num_appended(), 0u);
  EXPECT_EQ(ClassStore::delta_log_size(dlog), 0u);

  const ClassStore reopened = ClassStore::open(path);
  EXPECT_EQ(reopened.base_segment().size(), base_records + flushed.size() + pending.size());
  EXPECT_EQ(reopened.num_classes(), store.num_classes());
  for (const auto& group : {flushed, pending}) {
    for (const auto& f : group) {
      const auto durable = reopened.lookup(f);
      ASSERT_TRUE(durable.has_value());
      EXPECT_EQ(durable->class_id, store.lookup(f)->class_id);
    }
  }
  std::remove(path.c_str());
}

/// A flush whose append fails acknowledges nothing: it throws with the
/// memtable intact and publishes no run, so a later flush still persists
/// every appended class.
TEST(ClassStore, FailedDeltaFlushKeepsTheMemtable)
{
  const std::string full_device = "/dev/full";
  std::error_code ec;
  if (!std::filesystem::exists(full_device, ec)) {
    GTEST_SKIP() << "no " << full_device << " on this platform";
  }
  const int n = 5;
  ClassStore store{n};
  const auto appended = append_novel(store, 3, 0x3f30ULL);
  ASSERT_EQ(store.num_appended(), 3u);

  EXPECT_THROW((void)store.flush_delta(full_device), StoreFormatError);
  EXPECT_EQ(store.num_appended(), 3u) << "a failed flush must keep its records";
  EXPECT_EQ(store.num_delta_segments(), 0u) << "a failed flush must publish no run";
  for (const auto& f : appended) {
    EXPECT_TRUE(store.lookup(f).has_value());
  }

  // The retry writes every record, and a reopen serves them all.
  const std::string path = ::testing::TempDir() + "failed_flush.fcs";
  const std::string dlog = ClassStore::delta_log_path(path);
  std::remove(dlog.c_str());
  ClassStore{n}.save(path);
  ASSERT_EQ(store.flush_delta(dlog), 3u);
  const ClassStore reopened = ClassStore::open(path);
  for (const auto& f : appended) {
    const auto durable = reopened.lookup(f);
    ASSERT_TRUE(durable.has_value());
    EXPECT_EQ(durable->class_id, store.lookup(f)->class_id);
  }
  std::remove(path.c_str());
  std::remove(dlog.c_str());
}

TEST(StoreFormat, TransformPackUnpackRoundTrips)
{
  std::mt19937_64 rng{0x7a31ULL};
  for (int n = 0; n <= 8; ++n) {
    for (int trial = 0; trial < 50; ++trial) {
      const NpnTransform t = NpnTransform::random(n, rng);
      const NpnTransform back = unpack_transform(n, pack_transform(t));
      EXPECT_EQ(back, t);
    }
  }
}

TEST(StoreFormat, UnpackRejectsCorruptTransforms)
{
  // perm word with a repeated target is not a permutation.
  EXPECT_THROW((void)unpack_transform(3, {0x000ULL, 0}), StoreFormatError);
  // input_neg beyond the width.
  const auto packed = pack_transform(NpnTransform::identity(3));
  EXPECT_THROW((void)unpack_transform(3, {packed[0], 0xffULL}), StoreFormatError);
  // reserved high bits must be zero.
  EXPECT_THROW((void)unpack_transform(3, {packed[0], 1ULL << 40}), StoreFormatError);
}

}  // namespace
}  // namespace facet
