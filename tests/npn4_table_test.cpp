/// Exhaustive verification of the baked NPN4 norm table: every 16-bit truth
/// table (and every sub-width table down to the constants) must agree with
/// the exhaustive orbit-walk oracle on canonical form, carry a valid
/// witnessing transform, and index exactly the known class counts
/// {1, 2, 4, 14, 222}; plus the golden-hash drift guard and the ClassStore
/// table tier's bit-identity with the exhaustive classifier.

#include "facet/npn/npn4_table.hpp"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <vector>

#include "facet/npn/exact_canon.hpp"
#include "facet/npn/exact_classifier.hpp"
#include "facet/npn/npn4_table_golden.hpp"
#include "facet/npn/transform.hpp"
#include "facet/store/class_store.hpp"
#include "facet/store/store_builder.hpp"
#include "facet/tt/truth_table.hpp"
#include "facet/tt/tt_generate.hpp"

namespace facet {
namespace {

constexpr std::size_t kExpectedClasses[5] = {1, 2, 4, 14, 222};

/// Exhaustive sweep at one width: table canonical == walk-oracle canonical,
/// witness maps the query onto the canonical, and the class index round-trips
/// through npn4_class_canonical.
void sweep_width(int n)
{
  std::set<std::uint16_t> seen_classes;
  const std::uint64_t tables = 1ULL << (1u << n);
  for (std::uint64_t bits = 0; bits < tables; ++bits) {
    const TruthTable tt = TruthTable::from_word(n, bits);
    const Npn4Result result = npn4_lookup(tt);
    const TruthTable canonical = TruthTable::from_word(n, result.canonical_word);

    const CanonResult oracle = exact_npn_canonical_walk_with_transform(tt);
    ASSERT_EQ(canonical, oracle.canonical)
        << "n=" << n << " bits=0x" << std::hex << bits << ": table canonical diverges from walk";
    ASSERT_EQ(apply_transform(tt, result.transform), canonical)
        << "n=" << n << " bits=0x" << std::hex << bits << ": witness does not map to canonical";
    ASSERT_EQ(result.transform.num_vars, n);
    ASSERT_EQ(npn4_class_canonical(n, result.class_index), canonical)
        << "n=" << n << " bits=0x" << std::hex << bits << ": class index round-trip";
    seen_classes.insert(result.class_index);
  }
  EXPECT_EQ(seen_classes.size(), kExpectedClasses[n]) << "n=" << n;
  EXPECT_EQ(npn4_num_classes(n), kExpectedClasses[n]) << "n=" << n;
  // Dense and contiguous from zero.
  EXPECT_EQ(*seen_classes.begin(), 0u);
  EXPECT_EQ(*seen_classes.rbegin(), kExpectedClasses[n] - 1);
}

TEST(Npn4Table, ExhaustiveN4MatchesWalkOracle) { sweep_width(4); }

TEST(Npn4Table, ExhaustiveSubWidthsMatchWalkOracle)
{
  for (int n = 0; n <= 3; ++n) {
    sweep_width(n);
  }
}

TEST(Npn4Table, ExactCanonicalDispatchesThroughTheTable)
{
  // The public canonicalizer entry points must answer through the table for
  // every width <= 4: same canonical, valid witness. The walk-oracle sweeps
  // above check the table itself.
  std::mt19937_64 rng{0x4417ULL};
  for (int n = 0; n <= 4; ++n) {
    for (int i = 0; i < 200; ++i) {
      const TruthTable tt = tt_random(n, rng);
      const CanonResult fast = exact_npn_canonical_with_transform(tt);
      EXPECT_EQ(fast.canonical,
                TruthTable::from_word(n, npn4_lookup(tt).canonical_word));
      EXPECT_EQ(exact_npn_canonical(tt), fast.canonical);
      EXPECT_EQ(apply_transform(tt, fast.transform), fast.canonical);
    }
  }
}

TEST(Npn4Table, GoldenHashMatchesCheckedInValue)
{
  EXPECT_EQ(npn4_table_hash(), kNpn4GoldenTableHash);
}

TEST(Npn4Table, RejectsWidthsBeyondFour)
{
  EXPECT_THROW((void)npn4_lookup(TruthTable{5}), std::invalid_argument);
  EXPECT_THROW((void)npn4_num_classes(5), std::invalid_argument);
  EXPECT_THROW((void)npn4_class_canonical(5, 0), std::invalid_argument);
  EXPECT_THROW((void)npn4_class_canonical(4, kNpn4NumClasses), std::out_of_range);
}

std::vector<TruthTable> random_workload(int n, std::uint64_t seed, std::size_t count)
{
  std::mt19937_64 rng{seed};
  std::vector<TruthTable> funcs;
  funcs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    funcs.push_back(tt_random(n, rng));
  }
  return funcs;
}

TEST(Npn4Store, TableTierIdsBitIdenticalToExhaustiveClassifier)
{
  // A workload learned through the table tier must allocate exactly the
  // exhaustive classifier's ids, with the first member of each class as its
  // representative — the table changes HOW a class resolves, never WHICH
  // class it is.
  for (int n = 2; n <= 4; ++n) {
    const auto funcs = random_workload(n, 0x5173ULL + static_cast<std::uint64_t>(n), 400);
    const ClassificationResult expected = classify_exhaustive(funcs);
    std::vector<std::size_t> first_member(expected.num_classes, funcs.size());
    for (std::size_t i = funcs.size(); i-- > 0;) {
      first_member[expected.class_of[i]] = i;
    }
    ClassStore store{n};
    std::size_t table_hits = 0;
    for (std::size_t i = 0; i < funcs.size(); ++i) {
      const StoreLookupResult a = store.lookup_or_classify(funcs[i], true);
      ASSERT_EQ(a.class_id, expected.class_of[i]) << "n=" << n;
      ASSERT_EQ(a.representative, funcs[first_member[a.class_id]]) << "n=" << n;
      ASSERT_EQ(apply_transform(funcs[i], a.to_representative), a.representative) << "n=" << n;
      table_hits += a.source == LookupSource::kTable ? 1 : 0;
    }
    EXPECT_EQ(store.num_classes(), expected.num_classes);
    EXPECT_GT(table_hits, 0u);
    EXPECT_EQ(store.num_canonicalizations(), 0u)
        << "a width <= 4 store must never canonicalize";
  }
}

TEST(Npn4Store, ExhaustiveWidth4StoreServesEveryQueryFromTheTable)
{
  // A store built over every class resolves any 16-bit query via
  // LookupSource::kTable — cold, with the hot cache cleared, gate untouched.
  std::vector<TruthTable> all;
  all.reserve(1u << 16);
  for (std::uint64_t bits = 0; bits < (1u << 16); ++bits) {
    all.push_back(TruthTable::from_word(4, bits));
  }
  ClassStore store = build_class_store(all, {});
  EXPECT_EQ(store.num_classes(), kNpn4NumClasses);
  store.clear_hot_cache();

  std::mt19937_64 rng{0x4a11ULL};
  for (int i = 0; i < 1000; ++i) {
    const TruthTable f = tt_random(4, rng);
    const auto result = store.lookup(f);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->source, LookupSource::kTable);
    EXPECT_TRUE(result->known);
    EXPECT_EQ(apply_transform(f, result->to_representative), result->representative);
  }
  EXPECT_EQ(store.num_canonicalizations(), 0u);
}

TEST(Npn4Store, TransientMissesStayUnknownThroughTheTableTier)
{
  // A table-resolved query against a store that does not hold the class
  // reports known=0 without appending, exactly like the pre-table miss path.
  ClassStore store{4};  // empty
  const TruthTable f = TruthTable::from_word(4, 0xcafeULL);
  const StoreLookupResult miss = store.lookup_or_classify(f, /*append_on_miss=*/false);
  EXPECT_FALSE(miss.known);
  EXPECT_EQ(store.num_records(), 0u);
  EXPECT_EQ(store.num_canonicalizations(), 0u) << "the table resolves the canonical";

  // Appending publishes the class (still known=0 — it was not in the store
  // before this call); the repeat now answers src=table known=1.
  const StoreLookupResult appended = store.lookup_or_classify(f, /*append_on_miss=*/true);
  EXPECT_FALSE(appended.known);
  EXPECT_EQ(appended.source, LookupSource::kLive);
  EXPECT_EQ(appended.class_id, miss.class_id);
  store.clear_hot_cache();
  const auto warm = store.lookup(f);
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(warm->source, LookupSource::kTable);
}

}  // namespace
}  // namespace facet
