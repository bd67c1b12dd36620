#include "facet/sig/cofactor.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <vector>

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
  // Precompute the word mask and assignment bits of each in-word assignment;
  // only the first 2^in_word_size entries are written or read.
  const std::size_t in_count = std::size_t{1} << in_word_size;
  std::array<std::uint64_t, 64> in_mask;
  std::array<std::uint32_t, 64> in_bits;
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

/// Sorts `values` in place by counting. Every entry is a cofactor satisfy
/// count, bounded by its face size `bound`, so one histogram pass over
/// [0, bound] and one expansion pass replace a comparison sort. The
/// histogram sits on the stack up to a bound of 256 (n <= 9 at ℓ = 1,
/// n <= 10 at ℓ = 2) and on the heap beyond.
void counting_sort(std::span<std::uint32_t> values, std::uint32_t bound)
{
  constexpr std::size_t kStackBins = 257;
  const std::size_t bins_size = std::size_t{bound} + 1;
  std::array<std::uint32_t, kStackBins> stack_bins;
  std::vector<std::uint32_t> heap_bins;
  std::uint32_t* bins = stack_bins.data();
  if (bins_size <= kStackBins) {
    std::fill_n(bins, bins_size, 0u);
  } else {
    heap_bins.assign(bins_size, 0u);
    bins = heap_bins.data();
  }
  for (const std::uint32_t v : values) {
    ++bins[v];
  }
  auto out = values.begin();
  for (std::uint32_t v = 0; v <= bound; ++v) {
    out = std::fill_n(out, bins[v], v);
  }
}

/// Face size 2^(n - ell): the bound of every ell-ary cofactor count.
[[nodiscard]] std::uint32_t face_size(int n, int ell) noexcept
{
  return std::uint32_t{1} << (n - ell);
}

}  // namespace

std::vector<std::uint32_t> cofactor_counts(const TruthTable& tt, std::span<const int> vars)
{
  std::vector<std::uint32_t> counts(std::size_t{1} << vars.size(), 0);
  cofactor_counts_into(tt, vars, counts.data());
  return counts;
}

std::size_t ocv_size(int n, int ell) noexcept
{
  std::size_t entries = std::size_t{1} << ell;
  for (int i = 0; i < ell; ++i) {
    entries = entries * static_cast<std::size_t>(n - i) / static_cast<std::size_t>(i + 1);
  }
  return entries;
}

void ocv12_into(const TruthTable& tt, std::uint32_t* ocv1_out, std::uint32_t* ocv2_out)
{
  const int n = tt.num_vars();
  if (ocv2_out != nullptr && n < 2) {
    throw std::invalid_argument("ocv12_into: OCV2 needs at least two variables");
  }
  const auto un = static_cast<std::size_t>(n);
  const auto words = tt.words();
  const int in_word = std::min(n, kVarsPerWord);
  const bool pairs = ocv2_out != nullptr;

  // c1[i] = |f x_i|; c11[i * n + j] = |f x_i x_j| for i < j. The excess-bit
  // invariant keeps f's unused high bits zero for n < 6, so f ∧ x_i needs no
  // low mask.
  std::array<std::uint32_t, kMaxVars> c1{};
  std::array<std::uint32_t, kMaxVars * kMaxVars> c11;
  if (pairs) {
    std::fill_n(c11.begin(), un * un, 0u);
  }
  std::uint32_t total = 0;
  for (std::size_t w = 0; w < words.size(); ++w) {
    const std::uint64_t f = words[w];
    const auto count = static_cast<std::uint32_t>(popcount64(f));
    total += count;
    std::array<std::uint32_t, kVarsPerWord> fi_count{};
    for (int i = 0; i < in_word; ++i) {
      const std::uint64_t fi = f & kVarMask[static_cast<std::size_t>(i)];
      fi_count[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(popcount64(fi));
      c1[static_cast<std::size_t>(i)] += fi_count[static_cast<std::size_t>(i)];
      if (pairs) {
        for (int j = i + 1; j < in_word; ++j) {
          c11[static_cast<std::size_t>(i) * un + static_cast<std::size_t>(j)] +=
              static_cast<std::uint32_t>(popcount64(fi & kVarMask[static_cast<std::size_t>(j)]));
        }
      }
    }
    // A cross-word variable x_j is constant on a word (bit j - 6 of its
    // index): where it is 1 the word adds |f| to c1[j] and |f_i| to c11[i, j].
    for (int j = kVarsPerWord; j < n; ++j) {
      if (((w >> (j - kVarsPerWord)) & 1u) == 0) {
        continue;
      }
      c1[static_cast<std::size_t>(j)] += count;
      if (pairs) {
        std::uint32_t* column = c11.data() + static_cast<std::size_t>(j);
        for (int i = 0; i < kVarsPerWord; ++i) {
          column[static_cast<std::size_t>(i) * un] += fi_count[static_cast<std::size_t>(i)];
        }
        for (int i = kVarsPerWord; i < j; ++i) {
          if ((w >> (i - kVarsPerWord)) & 1u) {
            column[static_cast<std::size_t>(i) * un] += count;
          }
        }
      }
    }
  }

  if (ocv1_out != nullptr && n > 0) {
    for (std::size_t i = 0; i < un; ++i) {
      ocv1_out[2 * i] = total - c1[i];
      ocv1_out[2 * i + 1] = c1[i];
    }
    counting_sort({ocv1_out, 2 * un}, face_size(n, 1));
  }
  if (pairs) {
    std::uint32_t* out = ocv2_out;
    for (std::size_t i = 0; i < un; ++i) {
      for (std::size_t j = i + 1; j < un; ++j) {
        const std::uint32_t both = c11[i * un + j];
        *out++ = total - c1[i] - c1[j] + both;  // x_i = 0, x_j = 0
        *out++ = c1[i] - both;                  // x_i = 1, x_j = 0
        *out++ = c1[j] - both;                  // x_i = 0, x_j = 1
        *out++ = both;                          // x_i = 1, x_j = 1
      }
    }
    counting_sort({ocv2_out, ocv_size(n, 2)}, face_size(n, 2));
  }
}

std::vector<std::uint32_t> ocv1(const TruthTable& tt)
{
  std::vector<std::uint32_t> v(ocv_size(tt.num_vars(), 1));
  ocv12_into(tt, v.data(), nullptr);
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
  if (ell == 1) {
    return ocv1(tt);
  }
  std::vector<std::uint32_t> v(ocv_size(n, ell), 0);
  if (ell == 2) {
    ocv12_into(tt, nullptr, v.data());
    return v;
  }
  // ℓ >= 3: C(n, ℓ) * 2^ℓ entries, written in place subset by subset and
  // sorted once: the result vector is the only allocation below n = 12.
  std::uint32_t* next = v.data();
  for_each_subset(n, ell, [&](std::span<const int> subset) {
    cofactor_counts_into(tt, subset, next);
    next += std::size_t{1} << ell;
  });
  counting_sort(v, face_size(n, ell));
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
