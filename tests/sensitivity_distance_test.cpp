#include "facet/sig/sensitivity_distance.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <random>

#include "facet/tt/tt_generate.hpp"

namespace facet {
namespace {

/// Reference: quadratic pair loop for the distance spectrum of a point set.
std::vector<std::uint64_t> spectrum_naive(const TruthTable& points)
{
  const int n = points.num_vars();
  std::vector<std::uint64_t> spectrum(static_cast<std::size_t>(n), 0);
  for (std::uint64_t x = 0; x < points.num_bits(); ++x) {
    if (!points.get_bit(x)) {
      continue;
    }
    for (std::uint64_t y = x + 1; y < points.num_bits(); ++y) {
      if (points.get_bit(y)) {
        ++spectrum[static_cast<std::size_t>(std::popcount(x ^ y) - 1)];
      }
    }
  }
  return spectrum;
}

class OsdvSweep : public ::testing::TestWithParam<int> {};

TEST_P(OsdvSweep, SpectrumMatchesNaive)
{
  const int n = GetParam();
  std::mt19937_64 rng{0xD15u + static_cast<unsigned>(n)};
  for (int trial = 0; trial < 10; ++trial) {
    const TruthTable points = tt_random(n, rng);
    EXPECT_EQ(pair_distance_spectrum(points), spectrum_naive(points));
  }
}

TEST_P(OsdvSweep, OsdvMatchesNaive)
{
  const int n = GetParam();
  std::mt19937_64 rng{0xE27u + static_cast<unsigned>(n)};
  for (int trial = 0; trial < 5; ++trial) {
    const TruthTable tt = tt_random(n, rng);
    EXPECT_EQ(osdv(tt), osdv_naive(tt));
    EXPECT_EQ(osdv1(tt), osdv1_naive(tt));
    EXPECT_EQ(osdv0(tt), osdv0_naive(tt));
  }
}

TEST_P(OsdvSweep, PairCountsAreConsistentWithLevelSizes)
{
  // Sum over distances of sigma_s equals C(|S_s|, 2).
  const int n = GetParam();
  std::mt19937_64 rng{0xF39u + static_cast<unsigned>(n)};
  const TruthTable tt = tt_random(n, rng);
  const SensitivityProfile profile{tt};
  const auto v = osdv_from_profile(profile);
  for (int s = 0; s <= n; ++s) {
    const std::uint64_t size = profile.level_mask(s).count_ones();
    std::uint64_t pairs = 0;
    for (int j = 1; j <= n; ++j) {
      pairs += v[static_cast<std::size_t>(s) * static_cast<std::size_t>(n) + static_cast<std::size_t>(j - 1)];
    }
    EXPECT_EQ(pairs, size * (size - 1) / 2) << "level " << s;
  }
}

// n = 0 is the degenerate table; n = 8 is the benchmark width.
INSTANTIATE_TEST_SUITE_P(SmallWidths, OsdvSweep, ::testing::Range(0, 11));

TEST(Osdv, FullCubeSpectrum)
{
  // All 2^n points: pairs at distance j are C(n,j) * 2^(n-1). At n = 16,
  // the widest table, there are 2^32 ordered pairs in all, so the spectral
  // sums exercise the int64 accumulation.
  for (const int n : {4, kMaxVars}) {
    const auto spectrum = pair_distance_spectrum(tt_constant(n, true));
    ASSERT_EQ(spectrum.size(), static_cast<std::size_t>(n));
    std::uint64_t binomial = 1;
    for (int j = 1; j <= n; ++j) {
      binomial = binomial * static_cast<std::uint64_t>(n - j + 1) / static_cast<std::uint64_t>(j);
      EXPECT_EQ(spectrum[static_cast<std::size_t>(j - 1)], binomial << (n - 1))
          << "n " << n << " distance " << j;
    }
  }
}

TEST(Osdv, EmptyAndSingletonSetsHaveNoPairs)
{
  const TruthTable empty{4};
  for (const auto d : pair_distance_spectrum(empty)) {
    EXPECT_EQ(d, 0u);
  }
  TruthTable singleton{4};
  singleton.set_bit(7);
  for (const auto d : pair_distance_spectrum(singleton)) {
    EXPECT_EQ(d, 0u);
  }
}

TEST(Osdv, VectorShape)
{
  const TruthTable tt = tt_majority(3);
  EXPECT_EQ(osdv(tt).size(), 12u);   // (n+1) * n = 4 * 3
  EXPECT_EQ(osdv1(tt).size(), 12u);
  EXPECT_EQ(osdv0(tt).size(), 12u);
}

}  // namespace
}  // namespace facet
