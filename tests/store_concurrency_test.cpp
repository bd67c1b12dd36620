/// Concurrent hammering of the segmented store: many threads driving
/// lookup() / probe_cache() / find_canonical() against stores with live
/// delta segments and against lazily-validated mmap bases — and, since the
/// store gained its internal gate (gate.hpp), mutators running
/// *concurrently* with those readers: appends, flushes, compactions (also
/// racing each other), and racing appenders that must agree on one id per
/// class. Runs under the ASan/UBSan and TSan CI jobs, so data races on the
/// lazy page flags, the sharded cache, the memtable or the snapshot swap
/// surface as sanitizer failures, and every id mismatch is counted.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "facet/npn/exact_canon.hpp"
#include "facet/npn/transform.hpp"
#include "facet/store/class_store.hpp"
#include "facet/store/segment.hpp"
#include "facet/store/store_builder.hpp"
#include "facet/tt/tt_generate.hpp"
#include "facet/tt/tt_transform.hpp"

namespace facet {
namespace {

struct Workload {
  /// Full lookups (canonicalize + tiers + cache) and their expected ids.
  std::vector<TruthTable> queries;
  std::vector<std::uint32_t> expected_ids;
  /// Direct canonical keys (find_canonical, no canonicalization) and their
  /// expected ids — the cheap probes that hammer the page-validation flags.
  std::vector<TruthTable> canon_keys;
  std::vector<std::uint32_t> canon_ids;
};

/// Expected ids are computed single-threaded up front; the hammer only
/// compares.
Workload make_workload(ClassStore& store, std::span<const TruthTable> lookup_funcs,
                       std::span<const StoreRecord> all_records, std::uint64_t seed)
{
  std::mt19937_64 rng{seed};
  Workload w;
  for (const auto& f : lookup_funcs) {
    w.queries.push_back(f);
    w.queries.push_back(apply_transform(f, NpnTransform::random(f.num_vars(), rng)));
  }
  std::shuffle(w.queries.begin(), w.queries.end(), rng);
  for (const auto& q : w.queries) {
    const auto result = store.lookup(q);
    EXPECT_TRUE(result.has_value());
    w.expected_ids.push_back(result.has_value() ? result->class_id : 0xffffffffU);
  }
  for (const auto& record : all_records) {
    w.canon_keys.push_back(record.canonical);
    w.canon_ids.push_back(record.class_id);
  }
  store.clear_hot_cache();
  return w;
}

/// Hammers `store` from `num_threads` readers; returns the mismatch count.
/// Every thread interleaves cheap canonical probes (racing the lazy page
/// flags across the whole base) with full lookups (racing the sharded
/// cache and the canonicalize-then-search path).
std::size_t hammer(const ClassStore& store, const Workload& w, std::size_t num_threads,
                   std::size_t rounds)
{
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (std::size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < rounds; ++round) {
        // Each thread walks the keys from its own offset so validations of
        // the same page collide across threads.
        for (std::size_t k = 0; k < w.canon_keys.size(); ++k) {
          const std::size_t i = (k + t * 29 + round * 41) % w.canon_keys.size();
          const auto record = store.find_canonical(w.canon_keys[i]);
          if (!record.has_value() || record->class_id != w.canon_ids[i]) {
            ++mismatches;
          }
        }
        for (std::size_t k = 0; k < w.queries.size(); ++k) {
          const std::size_t i = (k + t * 17 + round * 31) % w.queries.size();
          if (const auto cached = store.probe_cache(w.queries[i])) {
            if (cached->class_id != w.expected_ids[i]) {
              ++mismatches;
            }
            continue;
          }
          const auto result = store.lookup(w.queries[i]);
          if (!result.has_value() || result->class_id != w.expected_ids[i]) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  return mismatches.load();
}

/// Appends `count` genuinely-new classes, sealing two delta runs into the
/// log at `dlog` along the way and leaving the tail in the memtable.
std::vector<TruthTable> grow_deltas(ClassStore& store, const std::string& dlog, std::size_t count,
                                    std::uint64_t seed)
{
  std::mt19937_64 rng{seed};
  std::vector<TruthTable> appended;
  while (appended.size() < count) {
    const TruthTable f = tt_random(store.num_vars(), rng);
    if (!store.lookup(f).has_value()) {
      (void)store.lookup_or_classify(f, /*append_on_miss=*/true);
      appended.push_back(f);
      if (appended.size() == count / 3 || appended.size() == (2 * count) / 3) {
        (void)store.flush_delta(dlog);
      }
    }
  }
  return appended;
}

TEST(StoreConcurrency, ReadersAgainstLiveDeltaSegments)
{
  const int n = 5;
  std::mt19937_64 rng{0xc0c0ULL};
  std::vector<TruthTable> base_funcs;
  for (int i = 0; i < 40; ++i) {
    base_funcs.push_back(tt_random(n, rng));
  }
  ClassStoreOptions options;
  options.hot_cache_capacity = 64;  // small: force constant insert/evict churn
  options.hot_cache_shards = 4;
  StoreBuildOptions build_options;
  build_options.store = options;
  ClassStore store = build_class_store(base_funcs, build_options);

  const std::string dlog = ::testing::TempDir() + "store_concurrency_live_deltas.dlog";
  std::remove(dlog.c_str());
  const auto appended = grow_deltas(store, dlog, 12, 0xc0c1ULL);
  std::remove(dlog.c_str());
  EXPECT_EQ(store.num_delta_segments(), 2u);
  EXPECT_GT(store.num_appended(), 0u) << "memtable must stay live during the hammer";

  // Lookups cover base members and appended classes; canonical probes cover
  // every persisted record (base + deltas + memtable).
  std::vector<TruthTable> lookup_funcs{base_funcs.begin(), base_funcs.begin() + 20};
  lookup_funcs.insert(lookup_funcs.end(), appended.begin(), appended.end());
  const std::vector<StoreRecord> all_records = store.persisted_records();
  const Workload w = make_workload(store, lookup_funcs, all_records, 0xc0c2ULL);
  EXPECT_EQ(hammer(store, w, 8, 3), 0u);
}

TEST(StoreConcurrency, ReadersAgainstLazyMmapBase)
{
  if (!mmap_supported()) {
    GTEST_SKIP() << "no mmap on this platform";
  }
  // A multi-page n=6 base so concurrent readers race on the lazy page
  // validation flags themselves. Most hammer traffic is find_canonical —
  // no canonicalization, pure segment reads — so the test stays fast under
  // sanitizers while still striding every page from every thread.
  const int n = 6;
  std::mt19937_64 rng{0xc0c3ULL};
  std::vector<TruthTable> base_funcs;
  for (int i = 0; i < 260; ++i) {
    base_funcs.push_back(tt_random(n, rng));
  }
  const std::string path = ::testing::TempDir() + "store_concurrency_mmap.fcs";
  const ClassStore built = build_class_store(base_funcs, {});
  built.save(path);
  const std::vector<StoreRecord> all_records = built.records();
  ASSERT_GT(all_records.size() * store_record_words(n) * 8, 2 * kStorePageBytes);

  StoreOpenOptions open_options;
  open_options.use_mmap = true;
  open_options.store.hot_cache_capacity = 64;
  ClassStore store = ClassStore::open(path, open_options);
  const auto* segment = dynamic_cast<const MmapSegment*>(&store.base_segment());
  ASSERT_NE(segment, nullptr);
  EXPECT_EQ(segment->pages_validated(), 0u);

  // A handful of full lookups keeps the canonicalize + cache path in the
  // race without dominating the runtime.
  const std::vector<TruthTable> lookup_funcs{base_funcs.begin(), base_funcs.begin() + 12};
  Workload w;
  std::mt19937_64 probe_rng{0xc0c4ULL};
  for (const auto& f : lookup_funcs) {
    w.queries.push_back(f);
    w.queries.push_back(apply_transform(f, NpnTransform::random(n, probe_rng)));
  }
  for (const auto& record : all_records) {
    w.canon_keys.push_back(record.canonical);
    w.canon_ids.push_back(record.class_id);
  }
  for (const auto& q : w.queries) {
    const auto expected = built.lookup(q);
    ASSERT_TRUE(expected.has_value());
    w.expected_ids.push_back(expected->class_id);
  }

  EXPECT_EQ(hammer(store, w, 8, 3), 0u);
  // Every record was probed, so every page must have been validated —
  // concurrently, exactly once each in effect.
  EXPECT_EQ(segment->pages_validated(), segment->num_pages());
  std::remove(path.c_str());
}

/// The tentpole contract of the store gate: readers keep resolving known
/// classes bit-identically while a writer thread appends novel classes,
/// seals delta runs, and swaps compacted bases in through compact() — with
/// NO external lock anywhere.
TEST(StoreConcurrency, ReadersStayBitIdenticalWhileAWriterAppendsFlushesAndCompacts)
{
  const int n = 5;
  std::mt19937_64 rng{0xc0d0ULL};
  std::vector<TruthTable> base_funcs;
  for (int i = 0; i < 30; ++i) {
    base_funcs.push_back(tt_random(n, rng));
  }
  const std::string path = ::testing::TempDir() + "store_concurrency_gate.fcs";
  const std::string dlog = ClassStore::delta_log_path(path);
  std::remove(dlog.c_str());
  build_class_store(base_funcs, {}).save(path);
  std::remove(dlog.c_str());

  ClassStoreOptions options;
  options.hot_cache_capacity = 64;  // churn the cache alongside the tiers
  StoreOpenOptions open_options;
  open_options.store = options;
  ClassStore store = ClassStore::open(path, open_options);

  // Reader workload over the base classes only — their ids must never waver
  // no matter what the writer publishes.
  const std::vector<TruthTable> lookup_funcs{base_funcs.begin(), base_funcs.end()};
  const std::vector<StoreRecord> all_records = store.persisted_records();
  const Workload w = make_workload(store, lookup_funcs, all_records, 0xc0d1ULL);

  std::atomic<bool> stop_readers{false};
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      while (!stop_readers.load()) {
        for (std::size_t k = 0; k < w.queries.size(); ++k) {
          const std::size_t i = (k + t * 17) % w.queries.size();
          const auto result = store.lookup(w.queries[i]);
          if (!result.has_value() || result->class_id != w.expected_ids[i]) {
            ++mismatches;
          }
        }
        for (std::size_t k = 0; k < w.canon_keys.size(); ++k) {
          const std::size_t i = (k + t * 29) % w.canon_keys.size();
          const auto id = store.find_class_id(w.canon_keys[i]);
          if (!id.has_value() || *id != w.canon_ids[i]) {
            ++mismatches;
          }
        }
      }
    });
  }

  // The writer: rounds of append -> flush -> compaction, all while the
  // readers run. Every call is a plain store method.
  std::mt19937_64 writer_rng{0xc0d2ULL};
  std::vector<std::pair<TruthTable, std::uint32_t>> appended;
  for (int round = 0; round < 3; ++round) {
    for (int a = 0; a < 4; ++a) {
      TruthTable f{n};
      do {
        f = tt_random(n, writer_rng);
      } while (store.lookup(f).has_value());
      const StoreLookupResult result = store.lookup_or_classify(f, /*append_on_miss=*/true);
      appended.emplace_back(f, result.class_id);
    }
    ASSERT_GT(store.flush_delta(dlog), 0u);
    (void)store.compact(path);
  }

  stop_readers.store(true);
  for (auto& reader : readers) {
    reader.join();
  }
  EXPECT_EQ(mismatches.load(), 0u) << "readers diverged during concurrent mutations";
  EXPECT_EQ(store.num_compactions(), 3u);
  EXPECT_EQ(store.num_delta_segments(), 0u);

  // Every append kept its id, live and after a cold reopen of the swapped
  // files.
  ClassStore reopened = ClassStore::open(path, open_options);
  for (const auto& [f, id] : appended) {
    const auto live = store.lookup(f);
    const auto durable = reopened.lookup(f);
    ASSERT_TRUE(live.has_value());
    ASSERT_TRUE(durable.has_value());
    EXPECT_EQ(live->class_id, id);
    EXPECT_EQ(durable->class_id, id);
  }
  std::remove(path.c_str());
  std::remove(dlog.c_str());
}

/// Two threads compact one store at once while a third appends and flushes:
/// every compaction succeeds, and every appended class keeps its id across a
/// reopen of whatever base + log the race left behind.
TEST(StoreConcurrency, RacingCompactionsKeepEveryAppend)
{
  const int n = 5;
  std::mt19937_64 rng{0xc0e0ULL};
  std::vector<TruthTable> base_funcs;
  for (int i = 0; i < 20; ++i) {
    base_funcs.push_back(tt_random(n, rng));
  }
  const std::string path = ::testing::TempDir() + "store_concurrency_compact.fcs";
  const std::string dlog = ClassStore::delta_log_path(path);
  std::remove(dlog.c_str());
  build_class_store(base_funcs, {}).save(path);
  ClassStore store = ClassStore::open(path);

  std::atomic<bool> appending{true};
  std::vector<std::pair<TruthTable, std::uint32_t>> appended;
  std::thread appender{[&] {
    std::mt19937_64 appender_rng{0xc0e1ULL};
    while (appended.size() < 60) {
      const TruthTable f = tt_random(n, appender_rng);
      if (store.lookup(f).has_value()) {
        continue;
      }
      appended.emplace_back(f, store.lookup_or_classify(f, /*append_on_miss=*/true).class_id);
      if (appended.size() % 3 == 0) {
        (void)store.flush_delta(dlog);
      }
    }
    appending.store(false);
  }};

  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> compactors;
  for (int t = 0; t < 2; ++t) {
    compactors.emplace_back([&] {
      // At least two rounds each, and on until the appender is done.
      for (int round = 0; round < 2 || appending.load(); ++round) {
        try {
          (void)store.compact(path);
        } catch (const std::exception&) {
          ++failures;
        }
      }
    });
  }
  appender.join();
  for (auto& compactor : compactors) {
    compactor.join();
  }
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GE(store.num_compactions(), 4u);

  // Appends after the last compaction's flush may still sit in the memtable.
  (void)store.flush_delta(dlog);
  const ClassStore reopened = ClassStore::open(path);
  for (const auto& [f, id] : appended) {
    const auto durable = reopened.lookup(f);
    ASSERT_TRUE(durable.has_value());
    EXPECT_EQ(durable->class_id, id);
  }
  for (const auto& f : base_funcs) {
    EXPECT_EQ(reopened.lookup(f)->class_id, store.lookup(f)->class_id);
  }
  std::remove(path.c_str());
  std::remove(dlog.c_str());
}

/// Racing appenders on the SAME novel classes: the gate's re-probe must
/// collapse every race to one id and one appended record per class.
TEST(StoreConcurrency, RacingAppendersAgreeOnOneIdPerClass)
{
  const int n = 5;
  ClassStore store{n};
  std::mt19937_64 rng{0xc0d3ULL};
  std::vector<TruthTable> novel;
  for (int i = 0; i < 24; ++i) {
    novel.push_back(tt_random(n, rng));
  }

  const std::size_t num_threads = 8;
  std::vector<std::vector<std::uint32_t>> seen(num_threads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      seen[t].assign(novel.size(), 0xffffffffU);
      for (std::size_t i = 0; i < novel.size(); ++i) {
        // Offset walks so threads collide on different functions at once.
        const std::size_t k = (i + t * 7) % novel.size();
        const auto result = store.lookup_or_classify(novel[k], /*append_on_miss=*/true);
        seen[t][k] = result.class_id;
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }

  // All threads observed the same id per function...
  for (std::size_t i = 0; i < novel.size(); ++i) {
    for (std::size_t t = 1; t < num_threads; ++t) {
      EXPECT_EQ(seen[t][i], seen[0][i]) << "thread " << t << " diverged on function " << i;
    }
  }
  // ...and every class was appended exactly once (distinct functions may
  // share an NPN class, so count unique canonical forms, not functions).
  const std::vector<StoreRecord> records = store.persisted_records();
  EXPECT_EQ(records.size(), store.num_classes());
  EXPECT_EQ(store.num_appended(), records.size());
  for (const auto& f : novel) {
    EXPECT_TRUE(store.lookup(f).has_value());
  }
}

/// Racing appenders pushing NPN *images* of shared novel classes: most
/// queries resolve through the semiclass memo while other threads are
/// appending to the same classes. Every thread must still observe one id
/// per class, and memoized answers must be bit-identical to the gate's.
TEST(StoreConcurrency, RacingAppendersThroughTheMemoAgreeOnOneIdPerClass)
{
  const int n = 5;
  ClassStore store{n};
  std::mt19937_64 rng{0x3e3e0ULL};
  const std::size_t num_bases = 12;
  const std::size_t images_per_base = 6;
  std::vector<TruthTable> bases;
  for (std::size_t b = 0; b < num_bases; ++b) {
    bases.push_back(tt_random(n, rng));
  }
  // queries[b][j]: image j of base b; image 0 is the base itself.
  std::vector<std::vector<TruthTable>> queries(num_bases);
  for (std::size_t b = 0; b < num_bases; ++b) {
    queries[b].push_back(bases[b]);
    for (std::size_t j = 1; j < images_per_base; ++j) {
      queries[b].push_back(apply_transform(bases[b], NpnTransform::random(n, rng)));
    }
  }

  const std::size_t num_threads = 8;
  std::vector<std::vector<std::uint32_t>> seen(num_threads);
  std::atomic<std::uint64_t> witness_failures{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      seen[t].assign(num_bases, 0xffffffffU);
      for (std::size_t i = 0; i < num_bases; ++i) {
        // Offset walks so threads collide on different classes at once;
        // vary the image per thread so the memo (keyed by semiclass, matched
        // per image) is exercised with distinct tables of the same class.
        const std::size_t b = (i + t * 5) % num_bases;
        const std::size_t j = (i + t) % images_per_base;
        const auto result =
            store.lookup_or_classify(queries[b][j], /*append_on_miss=*/true);
        if (apply_transform(queries[b][j], result.to_representative) !=
            result.representative) {
          witness_failures.fetch_add(1, std::memory_order_relaxed);
        }
        // All images of base b share one class: ids must never diverge
        // within a thread either.
        if (seen[t][b] != 0xffffffffU && seen[t][b] != result.class_id) {
          witness_failures.fetch_add(1, std::memory_order_relaxed);
        }
        seen[t][b] = result.class_id;
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(witness_failures.load(), 0u);

  // Every thread agreed on the id of every class...
  for (std::size_t b = 0; b < num_bases; ++b) {
    for (std::size_t t = 1; t < num_threads; ++t) {
      EXPECT_EQ(seen[t][b], seen[0][b]) << "thread " << t << " diverged on base " << b;
    }
  }
  // ...ids match a fresh single-threaded canonical grouping (distinct bases
  // may coincidentally share an NPN class, so group by canonical form)...
  std::vector<TruthTable> canonicals;
  for (const auto& base : bases) {
    canonicals.push_back(exact_npn_canonical(base));
  }
  for (std::size_t a = 0; a < num_bases; ++a) {
    for (std::size_t b = a + 1; b < num_bases; ++b) {
      if (canonicals[a] == canonicals[b]) {
        EXPECT_EQ(seen[0][a], seen[0][b]);
      } else {
        EXPECT_NE(seen[0][a], seen[0][b]);
      }
    }
  }
  // ...and exactly one record was appended per class.
  const std::vector<StoreRecord> records = store.persisted_records();
  EXPECT_EQ(records.size(), store.num_classes());
  EXPECT_EQ(store.num_appended(), records.size());
  // Post-hoc lookups of every image resolve to the same ids.
  for (std::size_t b = 0; b < num_bases; ++b) {
    for (const auto& q : queries[b]) {
      const auto result = store.lookup(q);
      ASSERT_TRUE(result.has_value());
      EXPECT_TRUE(result->known);
      EXPECT_EQ(result->class_id, seen[0][b]);
    }
  }
}

}  // namespace
}  // namespace facet
