/// Tests of the multi-width store federation: StoreRouter dispatch and the
/// fcs-merge union (dedup by canonical form, renumber by first occurrence).

#include "facet/store/store_router.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "facet/npn/exact_classifier.hpp"
#include "facet/npn/transform.hpp"
#include "facet/store/merge.hpp"
#include "facet/store/store_builder.hpp"
#include "facet/tt/tt_generate.hpp"
#include "facet/tt/tt_io.hpp"
#include "facet/tt/tt_transform.hpp"

namespace facet {
namespace {

std::vector<TruthTable> random_funcs(int n, std::size_t count, std::uint64_t seed)
{
  std::mt19937_64 rng{seed};
  std::vector<TruthTable> funcs;
  for (std::size_t i = 0; i < count; ++i) {
    funcs.push_back(tt_random(n, rng));
  }
  return funcs;
}

/// A router over freshly-built stores of widths [lo, hi].
StoreRouter make_router(int lo, int hi, std::uint64_t seed,
                        std::vector<std::vector<TruthTable>>* datasets = nullptr)
{
  StoreRouter router;
  for (int n = lo; n <= hi; ++n) {
    auto funcs = random_funcs(n, 30, seed + static_cast<unsigned>(n));
    router.attach(std::make_unique<ClassStore>(build_class_store(funcs, {})));
    if (datasets != nullptr) {
      datasets->push_back(std::move(funcs));
    }
  }
  return router;
}

TEST(StoreRouter, DispatchesByWidthAndRejectsUnrouted)
{
  std::vector<std::vector<TruthTable>> datasets;
  StoreRouter router = make_router(3, 5, 0x40c7e0ULL, &datasets);
  EXPECT_EQ(router.num_stores(), 3u);
  EXPECT_EQ(router.widths(), (std::vector<int>{3, 4, 5}));

  for (const auto& funcs : datasets) {
    const ClassStore* store = router.store_for(funcs.front().num_vars());
    ASSERT_NE(store, nullptr);
    for (const auto& f : funcs) {
      const auto direct = store->lookup(f);
      const auto routed = router.lookup(f);
      ASSERT_TRUE(direct.has_value());
      ASSERT_TRUE(routed.has_value());
      EXPECT_EQ(routed->class_id, direct->class_id);
      EXPECT_EQ(apply_transform(f, routed->to_representative), routed->representative);
    }
  }

  EXPECT_EQ(router.store_for(6), nullptr);
  EXPECT_THROW((void)router.lookup(TruthTable{6}), std::invalid_argument);
  EXPECT_THROW((void)router.lookup_or_classify(TruthTable{6}), std::invalid_argument);

  // A second store of an already-routed width is a caller bug.
  EXPECT_THROW(router.attach(std::make_unique<ClassStore>(4)), std::invalid_argument);
  EXPECT_THROW(router.attach(nullptr), std::invalid_argument);
}

TEST(StoreRouter, OpenRestoresEveryWidthFromDisk)
{
  std::vector<std::vector<TruthTable>> datasets;
  StoreRouter built = make_router(3, 5, 0x40c7e1ULL, &datasets);

  std::vector<std::string> paths;
  for (const int n : built.widths()) {
    paths.push_back(::testing::TempDir() + "router_width" + std::to_string(n) + ".fcs");
    built.store_for(n)->save(paths.back());
  }

  for (const bool use_mmap : {false, true}) {
    if (use_mmap && !mmap_supported()) {
      continue;
    }
    StoreOpenOptions options;
    options.use_mmap = use_mmap;
    StoreRouter opened = StoreRouter::open(paths, options);
    EXPECT_EQ(opened.widths(), built.widths());
    for (const auto& funcs : datasets) {
      for (const auto& f : funcs) {
        const auto expected = built.lookup(f);
        const auto actual = opened.lookup(f);
        ASSERT_TRUE(actual.has_value());
        EXPECT_EQ(actual->class_id, expected->class_id);
      }
    }
  }
  // Duplicate widths across files are rejected.
  std::vector<std::string> duplicated = paths;
  duplicated.push_back(paths.front());
  EXPECT_THROW((void)StoreRouter::open(duplicated), std::invalid_argument);
  for (const auto& path : paths) {
    std::remove(path.c_str());
  }
}

// -- fcs-merge ---------------------------------------------------------------

TEST(StoreMerge, UnionDedupsByCanonicalAndRenumbersByFirstOccurrence)
{
  const int n = 4;
  std::mt19937_64 rng{0x40c7e7ULL};
  // Two overlapping datasets: B repeats some of A's functions (transformed,
  // so the overlap is by class, not by table).
  const auto funcs_a = random_funcs(n, 40, 0x40c7e8ULL);
  std::vector<TruthTable> funcs_b = random_funcs(n, 25, 0x40c7e9ULL);
  for (std::size_t i = 0; i < funcs_a.size(); i += 4) {
    funcs_b.push_back(apply_transform(funcs_a[i], NpnTransform::random(n, rng)));
  }
  std::shuffle(funcs_b.begin(), funcs_b.end(), rng);

  const ClassStore store_a = build_class_store(funcs_a, {});
  const ClassStore store_b = build_class_store(funcs_b, {});
  const ClassStore merged = merge_class_stores({&store_a, &store_b});

  // Size: |A| + |B| - |overlap|, where overlap counts shared canonicals.
  std::size_t overlap = 0;
  for (const auto& record : store_b.records()) {
    overlap += store_a.find_canonical(record.canonical).has_value() ? 1 : 0;
  }
  EXPECT_EQ(merged.num_records(),
            store_a.num_records() + store_b.num_records() - overlap);
  EXPECT_EQ(merged.num_classes(), merged.num_records());

  // First occurrence = store A's ids survive verbatim...
  for (const auto& record : store_a.records()) {
    const auto found = merged.find_canonical(record.canonical);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->class_id, record.class_id);
    EXPECT_EQ(found->representative, record.representative);
    // ...and shared classes accumulate B's members.
    const auto in_b = store_b.find_canonical(record.canonical);
    const std::uint32_t expected_size =
        record.class_size + (in_b.has_value() ? in_b->class_size : 0);
    EXPECT_EQ(found->class_size, expected_size);
  }
  // B-only classes renumber densely after A's, in B's id order.
  std::uint32_t next_expected = static_cast<std::uint32_t>(store_a.num_classes());
  std::vector<StoreRecord> b_records{store_b.records()};
  std::sort(b_records.begin(), b_records.end(),
            [](const StoreRecord& x, const StoreRecord& y) { return x.class_id < y.class_id; });
  for (const auto& record : b_records) {
    if (store_a.find_canonical(record.canonical).has_value()) {
      continue;
    }
    const auto found = merged.find_canonical(record.canonical);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->class_id, next_expected++);
  }

  // Classifying A's dataset through merged lookups reproduces A's ids —
  // the bit-identity contract survives the union.
  const ClassificationResult expected_a = classify_exhaustive(funcs_a);
  for (std::size_t i = 0; i < funcs_a.size(); ++i) {
    const auto result = merged.lookup(funcs_a[i]);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->class_id, expected_a.class_of[i]);
  }

  // Round trip through disk.
  const std::string path = ::testing::TempDir() + "merged_union.fcs";
  merged.save(path);
  const ClassStore reloaded = ClassStore::load(path);
  ASSERT_EQ(reloaded.num_records(), merged.num_records());
  for (const auto& f : funcs_b) {
    const auto before = merged.lookup(f);
    const auto after = reloaded.lookup(f);
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(after->class_id, before->class_id);
  }
  std::remove(path.c_str());

  EXPECT_THROW((void)merge_class_stores({}), std::invalid_argument);
  const ClassStore other_width{5};
  EXPECT_THROW((void)merge_class_stores({&store_a, &other_width}), std::invalid_argument);
}

TEST(StoreMerge, MergeIncludesDeltaSegmentsAndMemtable)
{
  const int n = 4;
  std::mt19937_64 rng{0x40c7eaULL};
  const auto funcs = random_funcs(n, 20, 0x40c7ebULL);
  ClassStore store = build_class_store(funcs, {});
  const auto base_classes = store.num_classes();

  // One appended class sealed into a delta, one left in the memtable.
  const std::string dlog = ::testing::TempDir() + "merge_deltas_and_memtable.dlog";
  std::remove(dlog.c_str());
  std::vector<TruthTable> novel;
  while (novel.size() < 2) {
    const TruthTable f = tt_random(n, rng);
    if (!store.lookup(f).has_value()) {
      (void)store.lookup_or_classify(f, /*append_on_miss=*/true);
      novel.push_back(f);
      if (novel.size() == 1) {
        (void)store.flush_delta(dlog);
      }
    }
  }
  std::remove(dlog.c_str());
  ASSERT_EQ(store.num_delta_segments(), 1u);
  ASSERT_EQ(store.num_appended(), 1u);

  const ClassStore merged = merge_class_stores({&store});
  EXPECT_EQ(merged.num_records(), base_classes + 2);
  for (const auto& f : novel) {
    EXPECT_TRUE(merged.lookup(f).has_value());
  }
}

}  // namespace
}  // namespace facet
