#include "facet/sig/sensitivity.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>

#include "facet/tt/tt_generate.hpp"

namespace facet {

namespace {

[[nodiscard]] int planes_for_vars(int num_vars) noexcept
{
  // Local sensitivity ranges over 0..n; we need enough planes to hold n.
  return num_vars == 0 ? 1 : std::bit_width(static_cast<unsigned>(num_vars));
}

}  // namespace

SensitivityProfile::SensitivityProfile(const TruthTable& tt)
    : num_vars_{tt.num_vars()},
      num_planes_{static_cast<std::size_t>(planes_for_vars(num_vars_))},
      num_words_{tt.num_words()},
      plane_words_(num_planes_ * num_words_, 0)
{
  // Carry-save accumulation, one word at a time: each difference mask word
  // d_i = f ^ flip_i(f) is added into the bit-sliced counter held in
  // registers, one bit per point, and popcount(d_i) feeds the influence of
  // x_i. An in-word flip is a delta swap within the word; a cross-word flip
  // pairs the word with its partner at index w ^ 2^(i-6). Nothing is
  // allocated beyond the planes themselves.
  const auto words = tt.words();
  for (std::size_t w = 0; w < num_words_; ++w) {
    const std::uint64_t f = words[w];
    std::array<std::uint64_t, kMaxPlanes> planes{};
    for (int i = 0; i < num_vars_; ++i) {
      std::uint64_t carry =
          i < kVarsPerWord ? f ^ flip_in_word(f, i) : f ^ words[w ^ (std::size_t{1} << (i - kVarsPerWord))];
      influences_[static_cast<std::size_t>(i)] += static_cast<std::uint32_t>(popcount64(carry));
      for (std::size_t p = 0; p < num_planes_ && carry != 0; ++p) {
        const std::uint64_t overflow = planes[p] & carry;
        planes[p] ^= carry;
        carry = overflow;
      }
      assert(carry == 0 && "sensitivity counter overflow");
    }
    for (std::size_t p = 0; p < num_planes_; ++p) {
      plane_words_[p * num_words_ + w] = planes[p];
    }
  }
  // Sensitive words come in pairs (X, X^i): the integer influence counts
  // pairs (influence.hpp).
  for (int i = 0; i < num_vars_; ++i) {
    influences_[static_cast<std::size_t>(i)] /= 2;
  }
}

int SensitivityProfile::local(std::uint64_t word_index) const noexcept
{
  int value = 0;
  for (std::size_t p = 0; p < num_planes_; ++p) {
    value |= static_cast<int>((plane_word(p, word_index >> 6) >> (word_index & 63)) & 1u) << p;
  }
  return value;
}

TruthTable SensitivityProfile::level_mask(int level) const
{
  TruthTable mask = tt_constant(num_vars_, true);
  level_mask_into(mask, level);
  return mask;
}

void SensitivityProfile::level_mask_into(TruthTable& out, int level) const
{
  // out is computed word-by-word without temporaries.
  auto words = out.words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    std::uint64_t m = ~0ULL;
    for (std::size_t p = 0; p < num_planes_; ++p) {
      const std::uint64_t pw = plane_word(p, w);
      m &= ((level >> p) & 1) ? pw : ~pw;
    }
    words[w] = m;
  }
  out.mask_excess();
}

SensitivityHistogram SensitivityProfile::histogram() const
{
  SensitivityHistogram hist(static_cast<std::size_t>(num_vars_) + 1, 0);
  for (int s = 0; s <= num_vars_; ++s) {
    std::uint64_t count = 0;
    for (std::size_t w = 0; w < num_words_; ++w) {
      std::uint64_t m = w == 0 && num_vars_ < kVarsPerWord ? low_bits_mask(num_vars_) : ~0ULL;
      for (std::size_t p = 0; p < num_planes_; ++p) {
        const std::uint64_t pw = plane_word(p, w);
        m &= ((s >> p) & 1) ? pw : ~pw;
      }
      count += static_cast<std::uint64_t>(popcount64(m));
    }
    hist[static_cast<std::size_t>(s)] = static_cast<std::uint32_t>(count);
  }
  return hist;
}

SensitivityHistogram SensitivityProfile::histogram_within(const TruthTable& selector) const
{
  SensitivityHistogram hist(static_cast<std::size_t>(num_vars_) + 1);
  histogram_within_into(selector, hist.data());
  return hist;
}

void SensitivityProfile::histogram_within_into(const TruthTable& selector, std::uint32_t* out) const
{
  for (int s = 0; s <= num_vars_; ++s) {
    std::uint64_t count = 0;
    for (std::size_t w = 0; w < num_words_; ++w) {
      std::uint64_t m = selector.word(w);
      for (std::size_t p = 0; p < num_planes_; ++p) {
        const std::uint64_t pw = plane_word(p, w);
        m &= ((s >> p) & 1) ? pw : ~pw;
      }
      count += static_cast<std::uint64_t>(popcount64(m));
    }
    out[s] = static_cast<std::uint32_t>(count);
  }
}

SensitivityHistogram osv(const TruthTable& tt) { return SensitivityProfile{tt}.histogram(); }

SensitivityHistogram osv1(const TruthTable& tt) { return SensitivityProfile{tt}.histogram_within(tt); }

SensitivityHistogram osv0(const TruthTable& tt) { return SensitivityProfile{tt}.histogram_within(~tt); }

namespace {

[[nodiscard]] int max_level(const SensitivityHistogram& hist)
{
  for (std::size_t s = hist.size(); s-- > 0;) {
    if (hist[s] != 0) {
      return static_cast<int>(s);
    }
  }
  return 0;
}

}  // namespace

int sensitivity(const TruthTable& tt) { return max_level(osv(tt)); }

int sensitivity1(const TruthTable& tt) { return max_level(osv1(tt)); }

int sensitivity0(const TruthTable& tt) { return max_level(osv0(tt)); }

std::vector<int> sensitivity_profile_naive(const TruthTable& tt)
{
  const std::uint64_t bits = tt.num_bits();
  std::vector<int> profile(bits, 0);
  for (std::uint64_t x = 0; x < bits; ++x) {
    int s = 0;
    for (int i = 0; i < tt.num_vars(); ++i) {
      if (tt.get_bit(x) != tt.get_bit(x ^ (1ULL << i))) {
        ++s;
      }
    }
    profile[x] = s;
  }
  return profile;
}

std::vector<std::uint32_t> histogram_to_sorted(const SensitivityHistogram& hist)
{
  std::vector<std::uint32_t> sorted;
  for (std::size_t s = 0; s < hist.size(); ++s) {
    sorted.insert(sorted.end(), hist[s], static_cast<std::uint32_t>(s));
  }
  return sorted;
}

}  // namespace facet
