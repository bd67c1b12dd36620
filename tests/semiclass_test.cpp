/// Property tests of the semiclass kernel (npn/semiclass.hpp) and the
/// keyed matcher fast path (npn/matcher.hpp) that back the store's
/// semiclass memo tier:
///
///  * semiclass_key is a TRUE NPN invariant — verified exhaustively over
///    every table AND every transform at small widths, over the full
///    65536-table space with random transforms at n = 4, and on random
///    wide tables.
///  * semiclass_form returns a witnessed orbit member whose key matches.
///  * the 4-argument npn_match(f, f_keys, g, g_keys) overload is
///    bit-identical to the 2-argument matcher on equivalent and
///    inequivalent pairs alike.
///  * SemiclassMemo — the memo the store and the batch engine share —
///    reproduces classify_exhaustive's ids exactly, also through capacity
///    overflows and under four racing threads; its inserts dedup and its
///    hits carry valid witnesses.
///  * the branch-and-bound canonicalizer agrees with the unpruned orbit
///    walk, with valid witnesses — the soundness floor under the memo's
///    canonicalization savings.

#include "facet/npn/semiclass.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "facet/npn/exact_canon.hpp"
#include "facet/npn/exact_classifier.hpp"
#include "facet/npn/matcher.hpp"
#include "facet/npn/transform.hpp"
#include "facet/tt/tt_generate.hpp"

namespace facet {
namespace {

/// All 2 * 2^n * n! transforms of width n, enumerated deterministically:
/// permutation k is the k-th in lexicographic order, decoded from the
/// factorial digits of k.
std::vector<NpnTransform> all_transforms(int n)
{
  std::size_t permutations = 1;
  for (int i = 2; i <= n; ++i) {
    permutations *= static_cast<std::size_t>(i);
  }
  std::vector<NpnTransform> out;
  for (std::size_t k = 0; k < permutations; ++k) {
    NpnTransform base = NpnTransform::identity(n);
    std::size_t rest = k;
    std::size_t radix = permutations;
    for (int i = 0; i < n; ++i) {
      // Position i takes the (rest / radix)-th smallest unused variable.
      radix /= static_cast<std::size_t>(n - i);
      const auto pick = static_cast<std::size_t>(i) + rest / radix;
      rest %= radix;
      std::rotate(base.perm.begin() + i, base.perm.begin() + static_cast<std::ptrdiff_t>(pick),
                  base.perm.begin() + static_cast<std::ptrdiff_t>(pick) + 1);
    }
    for (std::uint32_t neg = 0; neg < (1u << n); ++neg) {
      for (int out_neg = 0; out_neg < 2; ++out_neg) {
        NpnTransform t = base;
        t.input_neg = neg;
        t.output_neg = out_neg != 0;
        out.push_back(t);
      }
    }
  }
  return out;
}

/// Every table of width n (only callable for n <= 4).
std::vector<TruthTable> all_tables(int n)
{
  std::vector<TruthTable> out;
  const std::uint64_t count = 1ULL << (1u << n);
  for (std::uint64_t bits = 0; bits < count; ++bits) {
    TruthTable tt{n};
    for (std::uint32_t b = 0; b < (1u << n); ++b) {
      if ((bits >> b) & 1u) {
        tt.set_bit(b);
      }
    }
    out.push_back(tt);
  }
  return out;
}

TEST(SemiclassKey, ExhaustiveInvarianceOverAllTablesAndTransforms)
{
  // Widths 1..3: every table crossed with every transform in the group.
  for (int n = 1; n <= 3; ++n) {
    const auto transforms = all_transforms(n);
    for (const auto& f : all_tables(n)) {
      const SemiclassKey key = semiclass_key(f);
      EXPECT_EQ(key.num_vars, n);
      for (const auto& t : transforms) {
        const TruthTable image = apply_transform(f, t);
        ASSERT_EQ(semiclass_key(image), key)
            << "n=" << n << " transform " << t.to_string() << " broke invariance";
      }
    }
  }
}

TEST(SemiclassKey, FullWidth4SpaceInvariantUnderRandomTransforms)
{
  const int n = 4;
  std::mt19937_64 rng{0x4444ULL};
  for (const auto& f : all_tables(n)) {
    const SemiclassKey key = semiclass_key(f);
    for (int k = 0; k < 4; ++k) {
      const NpnTransform t = NpnTransform::random(n, rng);
      ASSERT_EQ(semiclass_key(apply_transform(f, t)), key)
          << "transform " << t.to_string() << " broke invariance";
    }
  }
}

TEST(SemiclassKey, RandomWideTablesInvariantUnderRandomTransforms)
{
  std::mt19937_64 rng{0x5566ULL};
  for (int n = 5; n <= 8; ++n) {
    for (int i = 0; i < 200; ++i) {
      const TruthTable f = tt_random(n, rng);
      const SemiclassKey key = semiclass_key(f);
      for (int k = 0; k < 8; ++k) {
        ASSERT_EQ(semiclass_key(apply_transform(f, NpnTransform::random(n, rng))), key);
      }
    }
  }
}

TEST(SemiclassKey, SeparatesMostInequivalentPairs)
{
  // Inequality of keys must imply inequivalence (the invariance direction,
  // contrapositive); equal keys on inequivalent functions are allowed
  // collisions but should be the minority on random data, or the prefilter
  // would never prune anything.
  const int n = 5;
  std::mt19937_64 rng{0x909ULL};
  int equal_keys = 0;
  const int pairs = 300;
  for (int i = 0; i < pairs; ++i) {
    const TruthTable f = tt_random(n, rng);
    const TruthTable g = tt_random(n, rng);
    const bool same_key = semiclass_key(f) == semiclass_key(g);
    const bool equivalent = npn_match(f, g).has_value();
    if (equivalent) {
      EXPECT_TRUE(same_key);
    }
    if (same_key && !equivalent) {
      ++equal_keys;
    }
  }
  EXPECT_LT(equal_keys, pairs / 4);
}

TEST(SemiclassForm, WitnessedOrbitMemberWithMatchingKey)
{
  std::mt19937_64 rng{0xf0f0ULL};
  for (int n = 1; n <= 8; ++n) {
    for (int i = 0; i < 100; ++i) {
      const TruthTable f = tt_random(n, rng);
      const SemiclassResult r = semiclass_form(f);
      EXPECT_EQ(apply_transform(f, r.transform), r.image);
      EXPECT_EQ(apply_transform_fast(f, r.transform), r.image);
      EXPECT_EQ(semiclass_key(r.image), semiclass_key(f));
    }
  }
}

TEST(SemiclassMatcher, KeyedOverloadAgreesWithTwoArgOnEquivalentPairs)
{
  std::mt19937_64 rng{0xabcULL};
  for (int n = 1; n <= 7; ++n) {
    for (int i = 0; i < 60; ++i) {
      const TruthTable f = tt_random(n, rng);
      const TruthTable g = apply_transform(f, NpnTransform::random(n, rng));
      const NpnMatchKeys f_keys = npn_match_keys(f);
      const NpnMatchKeys g_keys = npn_match_keys(g);
      const auto keyed = npn_match(f, f_keys, g, g_keys);
      const auto plain = npn_match(f, g);
      ASSERT_TRUE(plain.has_value());
      ASSERT_TRUE(keyed.has_value());
      // Both witnesses map f onto g (the transforms themselves need not be
      // identical — orbits have stabilizers).
      EXPECT_EQ(apply_transform(f, *keyed), g);
      EXPECT_EQ(apply_transform(f, *plain), g);
    }
  }
}

TEST(SemiclassMatcher, KeyedOverloadAgreesWithTwoArgOnRandomPairs)
{
  std::mt19937_64 rng{0xdefULL};
  int matched = 0;
  for (int n = 2; n <= 6; ++n) {
    for (int i = 0; i < 80; ++i) {
      const TruthTable f = tt_random(n, rng);
      const TruthTable g = tt_random(n, rng);
      const auto keyed = npn_match(f, npn_match_keys(f), g, npn_match_keys(g));
      const auto plain = npn_match(f, g);
      ASSERT_EQ(keyed.has_value(), plain.has_value());
      if (keyed.has_value()) {
        ++matched;
        EXPECT_EQ(apply_transform(f, *keyed), g);
      }
    }
  }
  // Random pairs at n=2 collide often enough that this exercised both arms.
  EXPECT_GT(matched, 0);
}

/// `count` random classes of width n, each as its base function plus
/// `images` random NPN images, shuffled.
std::vector<TruthTable> class_workload(int n, int count, int images, std::mt19937_64& rng)
{
  std::vector<TruthTable> funcs;
  for (int b = 0; b < count; ++b) {
    const TruthTable base = tt_random(n, rng);
    funcs.push_back(base);
    for (int k = 0; k < images; ++k) {
      funcs.push_back(apply_transform(base, NpnTransform::random(n, rng)));
    }
  }
  std::shuffle(funcs.begin(), funcs.end(), rng);
  return funcs;
}

/// The canonical form of `f` the way the store and the batch engine get it:
/// a memo hit (whose witness must map f onto it), else the exact
/// canonicalizer, memoized. Counts the hits.
TruthTable canonical_through(SemiclassMemo& memo, const TruthTable& f, std::size_t& hits)
{
  const SemiclassKey key = semiclass_key(f);
  if (const auto hit = memo.find(f, key)) {
    EXPECT_EQ(apply_transform(f, hit->transform), hit->canonical);
    ++hits;
    return hit->canonical;
  }
  TruthTable canonical = exact_npn_canonical(f);
  memo.insert(key, canonical);
  return canonical;
}

/// Dense ids by first occurrence of each canonical form, checked against
/// classify_exhaustive function by function. Returns the memo hits.
std::size_t expect_exhaustive_ids(SemiclassMemo& memo, const std::vector<TruthTable>& funcs)
{
  const ClassificationResult expected = classify_exhaustive(funcs);
  std::unordered_map<TruthTable, std::uint32_t, TruthTableHash> id_of;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    const TruthTable canonical = canonical_through(memo, funcs[i], hits);
    const auto id = id_of.emplace(canonical, static_cast<std::uint32_t>(id_of.size())).first->second;
    EXPECT_EQ(id, expected.class_of[i]) << "function " << i;
  }
  EXPECT_EQ(id_of.size(), expected.num_classes);
  return hits;
}

TEST(SemiclassBucketing, BucketConstrainedClassificationMatchesExhaustive)
{
  // The memo's correctness argument: group functions by semiclass key, run
  // the complete matcher only within the bucket, and the resulting
  // partition — with ids assigned in first-seen order — must be identical
  // to classify_exhaustive's.
  std::mt19937_64 rng{0xb0caULL};
  for (int n = 3; n <= 6; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const std::vector<TruthTable> funcs = class_workload(n, 30, 3, rng);
    SemiclassMemo memo;
    const std::size_t hits = expect_exhaustive_ids(memo, funcs);
    // Every class was canonicalized once and memoized once; the rest hit.
    EXPECT_EQ(memo.size() + hits, funcs.size());
  }
}

TEST(SemiclassMemo, CapacityOverflowClearsWholesaleAndRelearns)
{
  std::mt19937_64 rng{0xf10eULL};
  const std::vector<TruthTable> funcs = class_workload(5, 40, 3, rng);
  SemiclassMemo memo{7};
  std::size_t hits = 0;
  std::size_t clears = 0;
  for (const TruthTable& f : funcs) {
    const std::size_t before = memo.size();
    (void)canonical_through(memo, f, hits);
    EXPECT_LE(memo.size(), 7u);
    clears += memo.size() < before ? 1 : 0;
  }
  EXPECT_GT(clears, 0u);
  EXPECT_GT(hits, 0u);
  // Ids stay exact through any number of clears.
  expect_exhaustive_ids(memo, funcs);
  memo.clear();
  EXPECT_EQ(memo.size(), 0u);
}

TEST(SemiclassMemo, DuplicateInsertDedupsByCanonicalForm)
{
  std::mt19937_64 rng{0xd0d0ULL};
  const TruthTable f = tt_random(6, rng);
  const TruthTable image = apply_transform(f, NpnTransform::random(6, rng));
  const TruthTable canonical = exact_npn_canonical(f);
  SemiclassMemo memo;
  memo.insert(semiclass_key(f), canonical);
  memo.insert(semiclass_key(f), canonical);
  memo.insert(semiclass_key(image), exact_npn_canonical(image));
  EXPECT_EQ(memo.size(), 1u);

  TruthTable other = tt_random(6, rng);
  while (exact_npn_canonical(other) == canonical) {
    other = tt_random(6, rng);
  }
  memo.insert(semiclass_key(other), exact_npn_canonical(other));
  EXPECT_EQ(memo.size(), 2u);
}

TEST(SemiclassMemo, HitWitnessMapsTheQueryOntoTheCanonicalForm)
{
  std::mt19937_64 rng{0x1157ULL};
  for (int n = 5; n <= 7; ++n) {
    SemiclassMemo memo;
    for (int b = 0; b < 8; ++b) {
      const TruthTable base = tt_random(n, rng);
      const TruthTable canonical = exact_npn_canonical(base);
      memo.insert(semiclass_key(base), canonical);
      for (int k = 0; k < 4; ++k) {
        const TruthTable image = apply_transform(base, NpnTransform::random(n, rng));
        const auto hit = memo.find(image, semiclass_key(image));
        ASSERT_TRUE(hit.has_value()) << "n=" << n;
        EXPECT_EQ(hit->canonical, canonical);
        EXPECT_EQ(apply_transform(image, hit->transform), hit->canonical);
      }
    }
    // A random function almost surely has no memoized class; if it does,
    // the answer must still be its canonical form.
    const TruthTable stranger = tt_random(n, rng);
    if (const auto hit = memo.find(stranger, semiclass_key(stranger))) {
      EXPECT_EQ(hit->canonical, exact_npn_canonical(stranger));
    }
  }
}

TEST(SemiclassMemo, ConcurrentFindAndInsertAgreeWithTheCanonicalizer)
{
  // Four threads resolve one workload in different orders through one memo:
  // every answer must be the exact canonical form with a valid witness, and
  // each class must end up memoized once. The bounded run also clears the
  // memo under the other threads' finds.
  std::mt19937_64 rng{0xc0c0ULL};
  const std::vector<TruthTable> funcs = class_workload(5, 24, 3, rng);
  std::vector<TruthTable> expected;
  std::unordered_set<TruthTable, TruthTableHash> classes;
  for (const TruthTable& f : funcs) {
    expected.push_back(exact_npn_canonical(f));
    classes.insert(expected.back());
  }
  for (const std::size_t capacity : {SemiclassMemo::kUnbounded, std::size_t{5}}) {
    SemiclassMemo memo{capacity};
    std::atomic<int> wrong{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t k = 0; k < funcs.size(); ++k) {
          const std::size_t i = (k * (2 * t + 1) + t * 7) % funcs.size();
          const SemiclassKey key = semiclass_key(funcs[i]);
          TruthTable canonical;
          if (const auto hit = memo.find(funcs[i], key)) {
            if (apply_transform(funcs[i], hit->transform) != hit->canonical) {
              wrong.fetch_add(1);
            }
            canonical = hit->canonical;
          } else {
            canonical = exact_npn_canonical(funcs[i]);
            memo.insert(key, canonical);
          }
          if (canonical != expected[i]) {
            wrong.fetch_add(1);
          }
        }
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
    EXPECT_EQ(wrong.load(), 0);
    if (capacity == SemiclassMemo::kUnbounded) {
      EXPECT_EQ(memo.size(), classes.size());
    } else {
      EXPECT_LE(memo.size(), capacity);
    }
  }
}

TEST(SemiclassCanon, BranchAndBoundMatchesOrbitWalkExhaustively)
{
  // Every table at n <= 3: the pruned canonicalizer and the unpruned orbit
  // walk must pick the identical orbit minimum, with valid witnesses.
  for (int n = 0; n <= 3; ++n) {
    for (const auto& f : all_tables(n)) {
      const CanonResult fast = exact_npn_canonical_with_transform(f);
      const CanonResult walk = exact_npn_canonical_walk_with_transform(f);
      ASSERT_EQ(fast.canonical, walk.canonical);
      EXPECT_EQ(apply_transform(f, fast.transform), fast.canonical);
      EXPECT_EQ(apply_transform(f, walk.transform), walk.canonical);
    }
  }
}

TEST(SemiclassCanon, BranchAndBoundMatchesOrbitWalkOnRandomWideTables)
{
  std::mt19937_64 rng{0xcafeULL};
  for (int n = 4; n <= 6; ++n) {
    const int samples = n <= 5 ? 60 : 20;
    for (int i = 0; i < samples; ++i) {
      const TruthTable f = tt_random(n, rng);
      const CanonResult fast = exact_npn_canonical_with_transform(f);
      ASSERT_EQ(fast.canonical, exact_npn_canonical_walk(f)) << "n=" << n;
      EXPECT_EQ(apply_transform(f, fast.transform), fast.canonical);
      // The canonical form's key equals the input's — canonicalization
      // never leaves the semiclass bucket.
      EXPECT_EQ(semiclass_key(fast.canonical), semiclass_key(f));
    }
  }
}

}  // namespace
}  // namespace facet
