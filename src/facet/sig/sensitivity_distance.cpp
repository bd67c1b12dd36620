#include "facet/sig/sensitivity_distance.hpp"

#include <array>
#include <bit>
#include <cassert>
#include <span>

#include "facet/sig/walsh.hpp"
#include "facet/tt/tt_generate.hpp"

namespace facet {

namespace {

/// kKrawtchouk[n][i][j] = K_j(i) for width n: the sum of (-1)^{popcount(w & d)}
/// over the C(n, j) masks d of weight j, for any mask w of weight i, i.e.
/// sum_k (-1)^k C(i, k) C(n - i, j - k).
constexpr auto kKrawtchouk = [] {
  std::array<std::array<std::int64_t, kMaxVars + 1>, kMaxVars + 1> binomial{};
  for (int m = 0; m <= kMaxVars; ++m) {
    binomial[m][0] = 1;
    for (int k = 1; k <= m; ++k) {
      binomial[m][k] = binomial[m - 1][k - 1] + (k <= m - 1 ? binomial[m - 1][k] : 0);
    }
  }
  std::array<std::array<std::array<std::int64_t, kMaxVars + 1>, kMaxVars + 1>, kMaxVars + 1> table{};
  for (int n = 0; n <= kMaxVars; ++n) {
    for (int i = 0; i <= n; ++i) {
      for (int j = 0; j <= n; ++j) {
        std::int64_t sum = 0;
        for (int k = 0; k <= i && k <= j; ++k) {
          if (j - k <= n - i) {
            const std::int64_t term = binomial[i][k] * binomial[n - i][j - k];
            sum += k % 2 == 0 ? term : -term;
          }
        }
        table[n][i][j] = sum;
      }
    }
  }
  return table;
}();

/// Per-thread Walsh scratch of 2^n entries, grown once to the widest table
/// seen, so the kernel allocates nothing per call.
std::span<std::int32_t> walsh_scratch(int n)
{
  thread_local std::vector<std::int32_t> scratch;
  const std::size_t size = std::size_t{1} << n;
  if (scratch.size() < size) {
    scratch.resize(size);
  }
  return {scratch.data(), size};
}

/// Per-thread level-mask scratch of width n, rebuilt only when the width
/// changes (a width above 7 puts a TruthTable's words on the heap).
TruthTable& level_mask_scratch(int n)
{
  thread_local TruthTable mask{0};
  if (mask.num_vars() != n) {
    mask = TruthTable{n};
  }
  return mask;
}

/// Walsh-Krawtchouk pair counter; writes the spectrum of `points` into
/// `out[0..n-1]`. With S the 0/1 indicator of the set and S^ its Walsh
/// transform, the ordered pairs at distance j number
/// sum_w S^(w)^2 K_j(|w|) / 2^n (Parseval on the autocorrelation), so the
/// unordered ones are that sum over 2^(n+1). Exact in integers up to
/// n = 16: |S^(w)| <= 2^16 fits int32, and the weight-bucketed squares sum
/// to 2^n |S| <= 2^32, far inside int64 after the Krawtchouk weights.
void spectrum_into(const TruthTable& points, std::uint32_t* out)
{
  const int n = points.num_vars();
  for (int j = 0; j < n; ++j) {
    out[j] = 0;
  }
  if (points.count_ones() < 2) {
    return;
  }
  const std::span<std::int32_t> spectrum = walsh_scratch(n);
  indicator_spectrum_into(points, spectrum);

  // power[i] = sum of S^(w)^2 over |w| = i. Within an aligned block of 8
  // the low three bits add weights 0,1,1,2,1,2,2,3, so each block folds
  // into four sums before touching the table.
  std::array<std::int64_t, kMaxVars + 1> power{};
  const auto square = [&](std::size_t w) {
    const std::int64_t value = spectrum[w];
    return value * value;
  };
  const auto weight = [](std::size_t w) { return static_cast<std::size_t>(std::popcount(w)); };
  std::size_t w = 0;
  for (; w + 8 <= spectrum.size(); w += 8) {
    std::int64_t* p = power.data() + weight(w);
    p[0] += square(w);
    p[1] += square(w + 1) + square(w + 2) + square(w + 4);
    p[2] += square(w + 3) + square(w + 5) + square(w + 6);
    p[3] += square(w + 7);
  }
  for (; w < spectrum.size(); ++w) {  // n < 3
    power[weight(w)] += square(w);
  }
  const auto& krawtchouk = kKrawtchouk[static_cast<std::size_t>(n)];
  for (int j = 1; j <= n; ++j) {
    std::int64_t ordered_scaled = 0;
    for (int i = 0; i <= n; ++i) {
      ordered_scaled += power[static_cast<std::size_t>(i)] *
                        krawtchouk[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
    }
    assert(ordered_scaled >= 0 && ordered_scaled % (std::int64_t{2} << n) == 0);
    out[j - 1] = static_cast<std::uint32_t>(ordered_scaled >> (n + 1));
  }
}

}  // namespace

std::vector<std::uint64_t> pair_distance_spectrum(const TruthTable& points)
{
  std::array<std::uint32_t, kMaxVars> spectrum{};
  spectrum_into(points, spectrum.data());
  return {spectrum.begin(), spectrum.begin() + points.num_vars()};
}

void osdv_within_into(const SensitivityProfile& profile, const TruthTable& selector, std::uint32_t* out)
{
  const int n = profile.num_vars();
  TruthTable& mask = level_mask_scratch(n);
  for (int s = 0; s <= n; ++s) {
    profile.level_mask_into(mask, s);
    mask &= selector;
    spectrum_into(mask, out + static_cast<std::size_t>(s) * static_cast<std::size_t>(n));
  }
}

SensitivityDistanceVector osdv_within_from_profile(const SensitivityProfile& profile, const TruthTable& selector)
{
  const int n = profile.num_vars();
  std::vector<std::uint32_t> v(static_cast<std::size_t>(n + 1) * static_cast<std::size_t>(n));
  osdv_within_into(profile, selector, v.data());
  return {v.begin(), v.end()};
}

SensitivityDistanceVector osdv_from_profile(const SensitivityProfile& profile)
{
  return osdv_within_from_profile(profile, tt_constant(profile.num_vars(), true));
}

SensitivityDistanceVector osdv(const TruthTable& tt)
{
  return osdv_from_profile(SensitivityProfile{tt});
}

SensitivityDistanceVector osdv1(const TruthTable& tt)
{
  return osdv_within_from_profile(SensitivityProfile{tt}, tt);
}

SensitivityDistanceVector osdv0(const TruthTable& tt)
{
  return osdv_within_from_profile(SensitivityProfile{tt}, ~tt);
}

namespace {

[[nodiscard]] SensitivityDistanceVector osdv_naive_within(const TruthTable& tt, const TruthTable& selector)
{
  const int n = tt.num_vars();
  const auto profile = sensitivity_profile_naive(tt);
  SensitivityDistanceVector v(static_cast<std::size_t>(n + 1) * static_cast<std::size_t>(n), 0);
  const std::uint64_t bits = tt.num_bits();
  for (std::uint64_t x = 0; x < bits; ++x) {
    if (!selector.get_bit(x)) {
      continue;
    }
    for (std::uint64_t y = x + 1; y < bits; ++y) {
      if (!selector.get_bit(y) || profile[x] != profile[y]) {
        continue;
      }
      const int j = std::popcount(x ^ y);
      v[static_cast<std::size_t>(profile[x]) * static_cast<std::size_t>(n) + static_cast<std::size_t>(j - 1)] += 1;
    }
  }
  return v;
}

}  // namespace

SensitivityDistanceVector osdv_naive(const TruthTable& tt)
{
  return osdv_naive_within(tt, tt_constant(tt.num_vars(), true));
}

SensitivityDistanceVector osdv1_naive(const TruthTable& tt) { return osdv_naive_within(tt, tt); }

SensitivityDistanceVector osdv0_naive(const TruthTable& tt) { return osdv_naive_within(tt, ~tt); }

}  // namespace facet
