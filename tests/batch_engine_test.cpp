/// Tests for the parallel batch-classification engine: bit-identity with
/// every sequential classifier, determinism across thread counts, dedup
/// counters, and degenerate inputs.

#include "facet/engine/batch_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "facet/data/dataset.hpp"
#include "facet/engine/work_queue.hpp"
#include "facet/npn/codesign.hpp"
#include "facet/npn/exact_classifier.hpp"
#include "facet/npn/fp_classifier.hpp"
#include "facet/npn/hierarchical.hpp"
#include "facet/npn/semi_canonical.hpp"
#include "facet/npn/transform.hpp"
#include "facet/tt/tt_generate.hpp"

namespace facet {
namespace {

std::vector<ClassifierKind> all_kinds()
{
  return {ClassifierKind::kExact,        ClassifierKind::kExhaustive, ClassifierKind::kFp,
          ClassifierKind::kFpHashed,     ClassifierKind::kSemiCanonical,
          ClassifierKind::kHierarchical, ClassifierKind::kCodesign};
}

ClassificationResult sequential_reference(ClassifierKind kind, std::span<const TruthTable> funcs)
{
  switch (kind) {
    case ClassifierKind::kExact:
      return classify_exact(funcs);
    case ClassifierKind::kExhaustive:
      return classify_exhaustive(funcs);
    case ClassifierKind::kFp:
      return classify_fp(funcs, SignatureConfig::all());
    case ClassifierKind::kFpHashed:
      return classify_fp_hashed(funcs, SignatureConfig::all());
    case ClassifierKind::kSemiCanonical:
      return classify_semi_canonical(funcs);
    case ClassifierKind::kHierarchical:
      return classify_hierarchical(funcs);
    case ClassifierKind::kCodesign:
      return classify_codesign(funcs);
  }
  throw std::logic_error{"unknown kind"};
}

void expect_identical(const ClassificationResult& a, const ClassificationResult& b)
{
  ASSERT_EQ(a.num_classes, b.num_classes);
  ASSERT_EQ(a.class_of, b.class_of);
}

TEST(WorkerPool, RunsEveryIndexExactlyOnce)
{
  WorkerPool pool{4};
  EXPECT_EQ(pool.num_threads(), 4u);
  std::vector<std::atomic<int>> counts(1000);
  pool.run_indexed(counts.size(), [&](std::size_t i) { counts[i].fetch_add(1); });
  for (const auto& c : counts) {
    EXPECT_EQ(c.load(), 1);
  }
}

TEST(WorkerPool, EmptyBatchReturnsImmediately)
{
  WorkerPool pool{2};
  bool called = false;
  pool.run_indexed(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(WorkerPool, PropagatesTaskExceptions)
{
  WorkerPool pool{3};
  EXPECT_THROW(pool.run_indexed(64,
                                [&](std::size_t i) {
                                  if (i == 17) {
                                    throw std::runtime_error{"boom"};
                                  }
                                }),
               std::runtime_error);
}

TEST(BatchEngine, MatchesEverySequentialClassifierOnRandomSets)
{
  for (const int n : {4, 5, 6}) {
    const auto funcs = make_random_dataset(n, 400, 0xbeef + static_cast<std::uint64_t>(n));
    for (const auto kind : all_kinds()) {
      BatchEngineOptions options;
      options.num_threads = 4;
      BatchEngine engine{kind, options};
      const auto parallel = engine.classify(funcs);
      const auto sequential = sequential_reference(kind, funcs);
      SCOPED_TRACE("n=" + std::to_string(n) + " kind=" + classifier_kind_name(kind));
      expect_identical(parallel, sequential);
    }
  }
}

TEST(BatchEngine, MatchesSequentialOnCircuitDerivedSet)
{
  CircuitDatasetOptions options;
  options.max_functions = 2000;
  const auto funcs = make_circuit_dataset(5, options);
  ASSERT_FALSE(funcs.empty());
  for (const auto kind : all_kinds()) {
    BatchEngineOptions engine_options;
    engine_options.num_threads = 4;
    SCOPED_TRACE(classifier_kind_name(kind));
    expect_identical(classify_batch(funcs, kind, engine_options), sequential_reference(kind, funcs));
  }
}

TEST(BatchEngine, OneThreadAndManyThreadsAgree)
{
  const auto funcs = make_random_dataset(6, 600, 0x5eed);
  for (const auto kind : all_kinds()) {
    BatchEngineOptions one;
    one.num_threads = 1;
    BatchEngineOptions many;
    many.num_threads = 8;
    SCOPED_TRACE(classifier_kind_name(kind));
    expect_identical(classify_batch(funcs, kind, one), classify_batch(funcs, kind, many));
  }
}

TEST(BatchEngine, EmptyInput)
{
  for (const auto kind : all_kinds()) {
    BatchEngineOptions options;
    options.num_threads = 4;
    BatchEngineStats stats;
    const auto result = classify_batch({}, kind, options, &stats);
    EXPECT_EQ(result.num_classes, 0u);
    EXPECT_TRUE(result.class_of.empty());
    EXPECT_EQ(stats.cache_hits + stats.cache_misses, 0u);
  }
}

TEST(BatchEngine, SingleFunction)
{
  const std::vector<TruthTable> funcs{tt_majority(5)};
  for (const auto kind : all_kinds()) {
    const auto result = classify_batch(funcs, kind, {.num_threads = 4});
    EXPECT_EQ(result.num_classes, 1u);
    ASSERT_EQ(result.class_of.size(), 1u);
    EXPECT_EQ(result.class_of[0], 0u);
  }
}

TEST(BatchEngine, DuplicateHeavyInputHitsTheCache)
{
  // 64 distinct functions, each repeated 16 times — the cut-enumeration
  // profile the memo cache targets.
  const auto base = make_random_dataset(6, 64, 13);
  std::vector<TruthTable> funcs;
  for (int rep = 0; rep < 16; ++rep) {
    funcs.insert(funcs.end(), base.begin(), base.end());
  }

  BatchEngineOptions options;
  options.num_threads = 4;
  BatchEngine engine{ClassifierKind::kCodesign, options};
  BatchEngineStats stats;
  const auto parallel = engine.classify(funcs, &stats);
  expect_identical(parallel, classify_codesign(funcs));
  // Every repeat of a function is a hit; only distinct tables miss.
  EXPECT_EQ(stats.cache_misses, base.size());
  EXPECT_EQ(stats.cache_hits, funcs.size() - base.size());

  // A second call keys the same distinct tables again (no image cache
  // lives across calls) and gives identical ids.
  BatchEngineStats again;
  expect_identical(engine.classify(funcs, &again), parallel);
  EXPECT_EQ(again.cache_misses, base.size());
  EXPECT_EQ(again.cache_hits, funcs.size() - base.size());
}

TEST(BatchEngine, MixedWidthExhaustiveBatchMatchesSequential)
{
  // The cut-enumeration regime: one batch holding widths 3..6, each
  // function next to an NPN image of itself. Widths 5 and 6 run through the
  // engine's semiclass memo, widths 3 and 4 through the NPN4 table, and the
  // ids must still equal classify_exhaustive's bit for bit.
  std::mt19937_64 rng{0x40c7e2ULL};
  std::vector<TruthTable> funcs;
  for (int n = 3; n <= 6; ++n) {
    for (int i = 0; i < 30; ++i) {
      const TruthTable f = tt_random(n, rng);
      funcs.push_back(f);
      funcs.push_back(apply_transform(f, NpnTransform::random(n, rng)));
    }
  }
  std::shuffle(funcs.begin(), funcs.end(), rng);

  BatchEngineOptions options;
  options.num_threads = 2;
  BatchEngine engine{ClassifierKind::kExhaustive, options};
  const ClassificationResult expected = classify_exhaustive(funcs);
  expect_identical(engine.classify(funcs), expected);
  // A second call, answered from the warm memo, still matches.
  expect_identical(engine.classify(funcs), expected);
}

TEST(BatchEngine, FpKindsBuildEachMsvOnceAndMatchSequential)
{
  // An n = 8 circuit-derived subset (the benchmark width) plus repeats of
  // some members and the complements of the balanced ones: a complement is
  // a distinct input in its original's class, reached through the balanced
  // polarity choice of build_msv.
  CircuitDatasetOptions dataset_options;
  dataset_options.max_functions = 300;
  std::vector<TruthTable> funcs = make_circuit_dataset(8, dataset_options);
  ASSERT_FALSE(funcs.empty());
  const std::size_t base = funcs.size();
  std::size_t complements = 0;
  for (std::size_t i = 0; i < base; ++i) {
    if (i % 3 == 0) {
      funcs.push_back(funcs[i]);
    }
    if (2 * funcs[i].count_ones() == funcs[i].num_bits()) {
      funcs.push_back(~funcs[i]);
      ++complements;
    }
  }
  ASSERT_GT(complements, 0U);
  for (std::size_t i = 0; i < base; i += 7) {
    funcs.push_back(funcs[i]);
  }
  const std::unordered_set<TruthTable, TruthTableHash> distinct(funcs.begin(), funcs.end());
  ASSERT_GT(funcs.size(), distinct.size());

  for (const auto kind : {ClassifierKind::kFp, ClassifierKind::kFpHashed}) {
    const auto sequential = sequential_reference(kind, funcs);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      SCOPED_TRACE(classifier_kind_name(kind) + " threads=" + std::to_string(threads));
      BatchEngine engine{kind, {.num_threads = threads}};
      BatchEngineStats stats;
      expect_identical(engine.classify(funcs, &stats), sequential);
      // The counters count MSVs built: exactly one per distinct input.
      EXPECT_EQ(stats.cache_misses, distinct.size());
      EXPECT_EQ(stats.cache_hits + stats.cache_misses, funcs.size());
    }
  }
}

TEST(BatchEngine, KindNamesRoundTrip)
{
  for (const auto kind : all_kinds()) {
    const auto name = classifier_kind_name(kind);
    const auto parsed = classifier_kind_from_name(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(classifier_kind_from_name("nope").has_value());
  EXPECT_EQ(classifier_kind_from_name("exhaustive"), ClassifierKind::kExhaustive);
}

TEST(BatchEngine, StatsReportShardsAndThreads)
{
  const auto funcs = make_random_dataset(6, 500, 11);
  BatchEngineOptions options;
  options.num_threads = 4;
  BatchEngine engine{ClassifierKind::kSemiCanonical, options};
  EXPECT_EQ(engine.num_threads(), 4u);
  BatchEngineStats stats;
  (void)engine.classify(funcs, &stats);
  EXPECT_EQ(stats.threads, 4u);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, funcs.size());
}

TEST(BatchEngine, ExactKindWithCoarseBucketsMatchesSequential)
{
  // OCV1 alone buckets many inequivalent functions together, so the
  // engine's per-bucket matcher loop must separate several classes inside
  // one bucket exactly as classify_exact does.
  CircuitDatasetOptions dataset_options;
  dataset_options.max_functions = 1500;
  const auto funcs = make_circuit_dataset(6, dataset_options);
  ASSERT_FALSE(funcs.empty());
  ExactClassifyStats exact_stats;
  const auto sequential = classify_exact(funcs, SignatureConfig::ocv1_only(), &exact_stats);
  ASSERT_LT(exact_stats.buckets, sequential.num_classes);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    BatchEngineOptions options;
    options.num_threads = threads;
    options.signature = SignatureConfig::ocv1_only();
    expect_identical(classify_batch(funcs, ClassifierKind::kExact, options), sequential);
  }
}

}  // namespace
}  // namespace facet
