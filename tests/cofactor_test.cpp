#include "facet/sig/cofactor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>

#include "facet/tt/tt_generate.hpp"

namespace facet {
namespace {

/// Reference cofactor count: iterate minterms.
std::uint32_t cofactor_count_naive(const TruthTable& tt, int var, bool value)
{
  std::uint32_t count = 0;
  for (std::uint64_t m = 0; m < tt.num_bits(); ++m) {
    if ((((m >> var) & 1ULL) != 0) == value && tt.get_bit(m)) {
      ++count;
    }
  }
  return count;
}

class CofactorSweep : public ::testing::TestWithParam<int> {};

TEST_P(CofactorSweep, CountMatchesNaive)
{
  const int n = GetParam();
  std::mt19937_64 rng{0xC0Fu + static_cast<unsigned>(n)};
  for (int trial = 0; trial < 10; ++trial) {
    const TruthTable tt = tt_random(n, rng);
    for (int v = 0; v < n; ++v) {
      EXPECT_EQ(cofactor_count(tt, v, false), cofactor_count_naive(tt, v, false));
      EXPECT_EQ(cofactor_count(tt, v, true), cofactor_count_naive(tt, v, true));
    }
  }
}

TEST_P(CofactorSweep, CofactorTableIsIndependentOfFixedVariable)
{
  const int n = GetParam();
  std::mt19937_64 rng{0xFACu + static_cast<unsigned>(n)};
  const TruthTable tt = tt_random(n, rng);
  for (int v = 0; v < n; ++v) {
    for (const bool value : {false, true}) {
      const TruthTable cf = cofactor(tt, v, value);
      // The cofactor no longer depends on x_v...
      EXPECT_EQ(cofactor(cf, v, false), cofactor(cf, v, true));
      // ...and agrees with f on the face x_v = value.
      for (std::uint64_t m = 0; m < tt.num_bits(); ++m) {
        if ((((m >> v) & 1ULL) != 0) == value) {
          EXPECT_EQ(cf.get_bit(m), tt.get_bit(m));
        }
      }
    }
  }
}

TEST_P(CofactorSweep, MultiVariableCountsMatchNaive)
{
  const int n = GetParam();
  if (n < 2) {
    GTEST_SKIP();
  }
  std::mt19937_64 rng{0xBEEu + static_cast<unsigned>(n)};
  const TruthTable tt = tt_random(n, rng);
  const std::vector<int> vars{0, n - 1};
  const auto counts = cofactor_counts(tt, vars);
  ASSERT_EQ(counts.size(), 4u);
  for (int a = 0; a <= 1; ++a) {
    for (int b = 0; b <= 1; ++b) {
      std::uint32_t expected = 0;
      for (std::uint64_t m = 0; m < tt.num_bits(); ++m) {
        if (((m >> 0) & 1ULL) == static_cast<std::uint64_t>(a) &&
            ((m >> (n - 1)) & 1ULL) == static_cast<std::uint64_t>(b) && tt.get_bit(m)) {
          ++expected;
        }
      }
      EXPECT_EQ(counts[static_cast<std::size_t>(a + 2 * b)], expected);
    }
  }
}

TEST_P(CofactorSweep, PairsSumToSatisfyCount)
{
  const int n = GetParam();
  std::mt19937_64 rng{0xAB1u + static_cast<unsigned>(n)};
  const TruthTable tt = tt_random(n, rng);
  const auto pairs = cofactor_pairs(tt);
  ASSERT_EQ(pairs.size(), static_cast<std::size_t>(n));
  for (const auto& p : pairs) {
    EXPECT_EQ(p.count0 + p.count1, satisfy_count(tt));
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, CofactorSweep, ::testing::Range(1, 11));

/// Functions of width n over a sweep of densities: constants, single
/// minterms, sparse, balanced, dense and uniform.
std::vector<TruthTable> density_sweep(int n, std::mt19937_64& rng)
{
  const std::uint64_t bits = std::uint64_t{1} << n;
  std::vector<TruthTable> funcs{tt_constant(n, false), tt_constant(n, true)};
  for (const std::uint64_t ones : {std::uint64_t{1}, bits / 8, bits / 2, bits - bits / 8, bits - 1}) {
    funcs.push_back(tt_random_with_ones(n, ones, rng));
  }
  for (int trial = 0; trial < 4; ++trial) {
    funcs.push_back(tt_random(n, rng));
  }
  return funcs;
}

/// The fused OCV1/OCV2 pass (ocv12_into) against per-variable and per-pair
/// counts sorted with std::sort, across in-word and cross-word variables.
class FusedCofactorPass : public ::testing::TestWithParam<int> {};

TEST_P(FusedCofactorPass, Ocv1EqualsSortedCofactorCounts)
{
  const int n = GetParam();
  std::mt19937_64 rng{0xF05Eu + static_cast<unsigned>(n)};
  for (const TruthTable& tt : density_sweep(n, rng)) {
    std::vector<std::uint32_t> expected;
    for (int i = 0; i < n; ++i) {
      expected.push_back(cofactor_count(tt, i, false));
      expected.push_back(cofactor_count(tt, i, true));
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(ocv1(tt), expected) << "n=" << n;
  }
}

TEST_P(FusedCofactorPass, Ocv2EqualsSortedPairCounts)
{
  const int n = GetParam();
  std::mt19937_64 rng{0xF05Fu + static_cast<unsigned>(n)};
  for (const TruthTable& tt : density_sweep(n, rng)) {
    std::vector<std::uint32_t> expected;
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        const std::array<int, 2> vars{i, j};
        const auto counts = cofactor_counts(tt, vars);
        expected.insert(expected.end(), counts.begin(), counts.end());
      }
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(ocv(tt, 2), expected) << "n=" << n;

    // One call filling both vectors equals the two single-vector calls.
    std::vector<std::uint32_t> both1(ocv_size(n, 1));
    std::vector<std::uint32_t> both2(ocv_size(n, 2));
    ocv12_into(tt, both1.data(), both2.data());
    EXPECT_EQ(both1, ocv1(tt));
    EXPECT_EQ(both2, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths2To11, FusedCofactorPass, ::testing::Range(2, 12));

TEST(Cofactor, Ocv3EqualsSortedTripleCounts)
{
  for (int n = 3; n <= 11; ++n) {
    std::mt19937_64 rng{0xF060u + static_cast<unsigned>(n)};
    for (const TruthTable& tt : density_sweep(n, rng)) {
      std::vector<std::uint32_t> expected;
      for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) {
          for (int k = j + 1; k < n; ++k) {
            const std::array<int, 3> vars{i, j, k};
            const auto counts = cofactor_counts(tt, vars);
            expected.insert(expected.end(), counts.begin(), counts.end());
          }
        }
      }
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(ocv(tt, 3), expected) << "n=" << n;
    }
  }
}

TEST(Cofactor, FusedOcv1BelowTwoVariables)
{
  EXPECT_TRUE(ocv1(tt_constant(0, true)).empty());
  EXPECT_EQ(ocv1(tt_projection(1, 0)), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(ocv1(tt_constant(1, true)), (std::vector<std::uint32_t>{1, 1}));
}

TEST(Cofactor, FusedPassRejectsOcv2BelowTwoVariables)
{
  std::vector<std::uint32_t> out(4);
  EXPECT_THROW(ocv12_into(tt_projection(1, 0), nullptr, out.data()), std::invalid_argument);
  EXPECT_EQ(ocv_size(0, 0), 1u);
  EXPECT_EQ(ocv_size(8, 2), 112u);  // C(8,2) * 4
}

TEST(Cofactor, OcvShapes)
{
  std::mt19937_64 rng{5};
  const TruthTable tt = tt_random(5, rng);
  EXPECT_EQ(ocv1(tt).size(), 10u);
  EXPECT_EQ(ocv(tt, 1), ocv1(tt));
  EXPECT_EQ(ocv(tt, 2).size(), 40u);  // C(5,2) * 4
  EXPECT_EQ(ocv(tt, 3).size(), 80u);  // C(5,3) * 8
  EXPECT_EQ(ocv(tt, 0), std::vector<std::uint32_t>{static_cast<std::uint32_t>(satisfy_count(tt))});
  EXPECT_THROW(ocv(tt, 6), std::invalid_argument);
}

TEST(Cofactor, OcvIsSorted)
{
  std::mt19937_64 rng{6};
  for (int trial = 0; trial < 10; ++trial) {
    const TruthTable tt = tt_random(6, rng);
    for (int ell = 1; ell <= 3; ++ell) {
      const auto v = ocv(tt, ell);
      EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
    }
  }
}

TEST(Cofactor, HigherAryCountsSumToLowerAry)
{
  // Fixing one more variable splits each cofactor in two:
  // sum over the 2^l faces of a subset equals |f| for every subset.
  std::mt19937_64 rng{7};
  const TruthTable tt = tt_random(7, rng);
  const std::vector<int> vars{1, 3, 6};
  const auto counts = cofactor_counts(tt, vars);
  std::uint64_t sum = 0;
  for (const auto c : counts) {
    sum += c;
  }
  EXPECT_EQ(sum, satisfy_count(tt));
}

}  // namespace
}  // namespace facet
