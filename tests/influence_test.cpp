#include "facet/sig/influence.hpp"

#include <gtest/gtest.h>

#include <random>

#include "facet/sig/sensitivity.hpp"
#include "facet/tt/tt_generate.hpp"
#include "facet/tt/tt_transform.hpp"

namespace facet {
namespace {

/// Reference: count sensitive words directly.
std::uint32_t influence_naive(const TruthTable& tt, int var)
{
  std::uint32_t sensitive = 0;
  for (std::uint64_t m = 0; m < tt.num_bits(); ++m) {
    if (tt.get_bit(m) != tt.get_bit(m ^ (1ULL << var))) {
      ++sensitive;
    }
  }
  return sensitive / 2;  // the paper's integer convention
}

class InfluenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(InfluenceSweep, MatchesNaive)
{
  const int n = GetParam();
  std::mt19937_64 rng{0x1F0u + static_cast<unsigned>(n)};
  for (int trial = 0; trial < 10; ++trial) {
    const TruthTable tt = tt_random(n, rng);
    for (int v = 0; v < n; ++v) {
      EXPECT_EQ(influence(tt, v), influence_naive(tt, v));
    }
  }
}

TEST_P(InfluenceSweep, ProjectionHasMaximalInfluenceOnItsVariableOnly)
{
  const int n = GetParam();
  for (int v = 0; v < n; ++v) {
    const TruthTable tt = tt_projection(n, v);
    for (int u = 0; u < n; ++u) {
      EXPECT_EQ(influence(tt, u), u == v ? tt.num_bits() / 2 : 0u);
    }
  }
}

TEST_P(InfluenceSweep, ParityHasMaximalInfluenceEverywhere)
{
  const int n = GetParam();
  const TruthTable tt = tt_parity(n);
  for (int v = 0; v < n; ++v) {
    EXPECT_EQ(influence(tt, v), tt.num_bits() / 2);
  }
}

TEST_P(InfluenceSweep, OutputNegationPreservesInfluence)
{
  const int n = GetParam();
  std::mt19937_64 rng{0x99u + static_cast<unsigned>(n)};
  const TruthTable tt = tt_random(n, rng);
  for (int v = 0; v < n; ++v) {
    EXPECT_EQ(influence(tt, v), influence(~tt, v));
  }
}

TEST_P(InfluenceSweep, InputNegationPreservesInfluence)
{
  // Lemma 1 specialized: flipping any input permutes the words but keeps
  // each variable's influence.
  const int n = GetParam();
  std::mt19937_64 rng{0x77u + static_cast<unsigned>(n)};
  const TruthTable tt = tt_random(n, rng);
  for (int flipped = 0; flipped < n; ++flipped) {
    const TruthTable g = flip_var(tt, flipped);
    for (int v = 0; v < n; ++v) {
      EXPECT_EQ(influence(g, v), influence(tt, v));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, InfluenceSweep, ::testing::Range(1, 11));

TEST(Influence, ConstantsHaveZeroInfluence)
{
  for (const bool value : {false, true}) {
    const TruthTable tt = tt_constant(4, value);
    for (int v = 0; v < 4; ++v) {
      EXPECT_EQ(influence(tt, v), 0u);
    }
    EXPECT_EQ(total_influence(tt), 0u);
  }
}

TEST(Influence, TotalIsSumOfProfile)
{
  std::mt19937_64 rng{3};
  const TruthTable tt = tt_random(6, rng);
  const auto profile = influence_profile(tt);
  std::uint64_t sum = 0;
  for (const auto x : profile) {
    sum += x;
  }
  EXPECT_EQ(total_influence(tt), sum);
}

TEST(Influence, OivIsSortedProfile)
{
  std::mt19937_64 rng{4};
  const TruthTable tt = tt_random(7, rng);
  auto profile = influence_profile(tt);
  std::sort(profile.begin(), profile.end());
  EXPECT_EQ(oiv(tt), profile);
}

TEST(Influence, SensitivityProfileInfluencesEqualInfluenceProfile)
{
  // The MSV takes OIV from the profile's difference masks; they must agree
  // with the direct per-variable flip, including cross-word variables.
  std::mt19937_64 rng{0x1F1u};
  for (int n = 0; n <= 11; ++n) {
    const std::uint64_t bits = std::uint64_t{1} << n;
    for (const std::uint64_t ones : {std::uint64_t{0}, std::uint64_t{1}, bits / 2, bits - 1, bits}) {
      const TruthTable tt = tt_random_with_ones(n, ones, rng);
      const SensitivityProfile profile{tt};
      const auto influences = profile.influences();
      EXPECT_EQ(std::vector<std::uint32_t>(influences.begin(), influences.end()), influence_profile(tt))
          << "n=" << n << " ones=" << ones;
    }
    const TruthTable tt = tt_random(n, rng);
    const SensitivityProfile profile{tt};
    const auto influences = profile.influences();
    EXPECT_EQ(std::vector<std::uint32_t>(influences.begin(), influences.end()), influence_profile(tt)) << "n=" << n;
  }
}

TEST(Influence, ProbabilityNormalization)
{
  // Parity: every variable has influence probability 1.
  const TruthTable p = tt_parity(5);
  EXPECT_DOUBLE_EQ(influence_probability(p, 0), 1.0);
  // Majority-3: 4 sensitive words out of 8.
  const TruthTable m = tt_majority(3);
  EXPECT_DOUBLE_EQ(influence_probability(m, 1), 0.5);
}

}  // namespace
}  // namespace facet
