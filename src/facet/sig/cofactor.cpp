#include "facet/sig/cofactor.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace facet {

std::uint32_t cofactor_count(const TruthTable& tt, int var, bool value)
{
  if (var < 0 || var >= tt.num_vars()) {
    throw std::invalid_argument("cofactor_count: variable index out of range");
  }
  const auto words = tt.words();
  std::uint32_t total = 0;
  if (var < kVarsPerWord) {
    const std::uint64_t mask =
        value ? kVarMask[static_cast<std::size_t>(var)] : ~kVarMask[static_cast<std::size_t>(var)];
    // For n < 6 the excess-bit invariant keeps the complement mask harmless.
    const std::uint64_t low = low_bits_mask(tt.num_vars());
    for (const auto w : words) {
      total += static_cast<std::uint32_t>(popcount64(w & mask & low));
    }
    return total;
  }
  const std::size_t stride = std::size_t{1} << (var - kVarsPerWord);
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (((i & stride) != 0) == value) {
      total += static_cast<std::uint32_t>(popcount64(words[i]));
    }
  }
  return total;
}

TruthTable cofactor(const TruthTable& tt, int var, bool value)
{
  if (var < 0 || var >= tt.num_vars()) {
    throw std::invalid_argument("cofactor: variable index out of range");
  }
  TruthTable result{tt};
  auto words = result.words();
  if (var < kVarsPerWord) {
    const std::uint64_t mask = kVarMask[static_cast<std::size_t>(var)];
    const int shift = 1 << var;
    for (auto& w : words) {
      if (value) {
        const std::uint64_t face = w & mask;
        w = face | (face >> shift);
      } else {
        const std::uint64_t face = w & ~mask;
        w = face | (face << shift);
      }
    }
    result.mask_excess();
    return result;
  }
  const std::size_t stride = std::size_t{1} << (var - kVarsPerWord);
  for (std::size_t i = 0; i < words.size(); ++i) {
    const bool in_face = ((i & stride) != 0) == value;
    if (!in_face) {
      words[i] = value ? words[i | stride] : words[i & ~stride];
    }
  }
  return result;
}

namespace {

/// Adds the 2^ell cofactor satisfy counts of `vars` into counts[0..2^ell),
/// which the caller zeroes; entry a is |f_{vars = a}| as in cofactor_counts.
void cofactor_counts_into(const TruthTable& tt, std::span<const int> vars, std::uint32_t* counts)
{
  const int ell = static_cast<int>(vars.size());
  const auto words = tt.words();
  const std::uint64_t low = low_bits_mask(tt.num_vars());

  // Split the subset into in-word variables (mask-selectable within a word)
  // and cross-word variables (select whole words by index bits).
  std::array<int, kMaxVars> in_word{};
  std::size_t in_word_size = 0;
  for (int k = 0; k < ell; ++k) {
    if (vars[k] < kVarsPerWord) {
      in_word[in_word_size++] = k;
    }
  }
  // Precompute the word mask and assignment bits of each in-word assignment.
  const std::size_t in_count = std::size_t{1} << in_word_size;
  std::array<std::uint64_t, 64> in_mask{};
  std::array<std::uint32_t, 64> in_bits{};
  for (std::size_t a = 0; a < in_count; ++a) {
    std::uint64_t mask = low;
    std::uint32_t bits = 0;
    for (std::size_t t = 0; t < in_word_size; ++t) {
      const int k = in_word[t];
      const std::uint64_t vm = kVarMask[static_cast<std::size_t>(vars[k])];
      if ((a >> t) & 1u) {
        mask &= vm;
        bits |= 1u << k;
      } else {
        mask &= ~vm;
      }
    }
    in_mask[a] = mask;
    in_bits[a] = bits;
  }

  for (std::size_t w = 0; w < words.size(); ++w) {
    // Assignment bits contributed by cross-word variables are fixed per word.
    std::uint32_t fixed_bits = 0;
    for (int k = 0; k < ell; ++k) {
      if (vars[k] >= kVarsPerWord) {
        const std::size_t stride = std::size_t{1} << (vars[k] - kVarsPerWord);
        if (w & stride) {
          fixed_bits |= 1u << k;
        }
      }
    }
    for (std::size_t a = 0; a < in_count; ++a) {
      counts[fixed_bits | in_bits[a]] += static_cast<std::uint32_t>(popcount64(words[w] & in_mask[a]));
    }
  }
}

}  // namespace

std::vector<std::uint32_t> cofactor_counts(const TruthTable& tt, std::span<const int> vars)
{
  std::vector<std::uint32_t> counts(std::size_t{1} << vars.size(), 0);
  cofactor_counts_into(tt, vars, counts.data());
  return counts;
}

std::vector<std::uint32_t> ocv1(const TruthTable& tt)
{
  std::vector<std::uint32_t> v;
  v.reserve(2u * static_cast<unsigned>(tt.num_vars()));
  for (int i = 0; i < tt.num_vars(); ++i) {
    v.push_back(cofactor_count(tt, i, false));
    v.push_back(cofactor_count(tt, i, true));
  }
  std::sort(v.begin(), v.end());
  return v;
}

namespace {

/// Visit all size-`ell` subsets of {0, ..., n-1} in lexicographic order.
template <typename Fn>
void for_each_subset(int n, int ell, Fn&& fn)
{
  std::array<int, kMaxVars> subset{};
  for (int i = 0; i < ell; ++i) {
    subset[i] = i;
  }
  while (true) {
    fn(std::span<const int>{subset.data(), static_cast<std::size_t>(ell)});
    int k = ell - 1;
    while (k >= 0 && subset[k] == n - ell + k) {
      --k;
    }
    if (k < 0) {
      break;
    }
    ++subset[k];
    for (int j = k + 1; j < ell; ++j) {
      subset[j] = subset[j - 1] + 1;
    }
  }
}

}  // namespace

std::vector<std::uint32_t> ocv(const TruthTable& tt, int ell)
{
  const int n = tt.num_vars();
  if (ell < 0 || ell > n) {
    throw std::invalid_argument("ocv: arity out of range");
  }
  if (ell == 0) {
    return {static_cast<std::uint32_t>(satisfy_count(tt))};
  }
  // C(n, ell) * 2^ell entries, written in place subset by subset and
  // sorted once: the result vector is the only allocation.
  std::size_t entries = std::size_t{1} << ell;
  for (int i = 0; i < ell; ++i) {
    entries = entries * static_cast<std::size_t>(n - i) / static_cast<std::size_t>(i + 1);
  }
  std::vector<std::uint32_t> v(entries, 0);
  std::uint32_t* next = v.data();
  for_each_subset(n, ell, [&](std::span<const int> subset) {
    cofactor_counts_into(tt, subset, next);
    next += std::size_t{1} << ell;
  });
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<CofactorPair> cofactor_pairs(const TruthTable& tt)
{
  std::vector<CofactorPair> pairs;
  pairs.reserve(static_cast<std::size_t>(tt.num_vars()));
  const auto total = static_cast<std::uint32_t>(satisfy_count(tt));
  for (int i = 0; i < tt.num_vars(); ++i) {
    const std::uint32_t c1 = cofactor_count(tt, i, true);
    pairs.push_back(CofactorPair{total - c1, c1});
  }
  return pairs;
}

}  // namespace facet
