/// \file sensitivity.hpp
/// \brief Point characteristic: Boolean sensitivity.
///
/// Implements Definitions 3, 4 and 8 of the paper. The local sensitivity
/// sen(f, X) counts the inputs whose single-bit flip changes f's output at
/// word X; sen/sen0/sen1 are the maxima over all words / 0-words / 1-words,
/// and OSV/OSV0/OSV1 are the sorted multisets of local sensitivities.
///
/// Theorem 2: PN-equivalent functions share (OSV, OSV0, OSV1). Theorem 3
/// extends this to balanced functions, where output negation may exchange
/// OSV0 and OSV1 — the MSV builder handles that pairing.
///
/// The profile is computed bit-sliced: the n difference masks
/// d_i = f XOR flip_i(f) are accumulated into ceil(log2(n+1)) carry-save bit
/// planes, so the full 2^n-point profile costs O(n log n) word passes instead
/// of O(n 2^n) point loops. The same masks give the influences for free
/// (inf(f, i) = popcount(d_i) / 2, influence.hpp), which is where the MSV
/// takes its OIV from. A naive per-point routine is kept as the reference
/// implementation for the property tests.

#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "facet/tt/truth_table.hpp"

namespace facet {

/// Ordered sensitivity vectors are represented as histograms: entry s is the
/// number of words with local sensitivity s (s = 0..n). A histogram is
/// equivalent to the paper's sorted multiset and compares in O(n).
using SensitivityHistogram = std::vector<std::uint32_t>;

/// Full local-sensitivity profile of a function, stored as bit planes:
/// plane p holds bit p of sen(f, X) at position X.
class SensitivityProfile {
 public:
  /// Builds the profile of `tt` (bit-sliced, one pass over its words).
  explicit SensitivityProfile(const TruthTable& tt);

  [[nodiscard]] int num_vars() const noexcept { return num_vars_; }

  /// Unsorted per-variable influences inf(f, i) = popcount(d_i) / 2, taken
  /// from the difference masks the profile is built from; equal to
  /// influence_profile(tt). The span views the profile, so a temporary
  /// profile cannot hand one out.
  [[nodiscard]] std::span<const std::uint32_t> influences() const& noexcept
  {
    return {influences_.data(), static_cast<std::size_t>(num_vars_)};
  }
  std::span<const std::uint32_t> influences() const&& = delete;

  /// Local sensitivity sen(f, X) (Definition 4).
  [[nodiscard]] int local(std::uint64_t word_index) const noexcept;

  /// Bit mask (as a truth table) of the words whose local sensitivity is
  /// exactly `level`. This is the per-level point set S_s used by the
  /// sensitivity-distance signatures.
  [[nodiscard]] TruthTable level_mask(int level) const;

  /// Allocation-free variant: writes the level mask into `out` (which must
  /// have the profile's variable count).
  void level_mask_into(TruthTable& out, int level) const;

  /// Histogram of sen(f, X) over all 2^n words (the OSV as a histogram).
  [[nodiscard]] SensitivityHistogram histogram() const;

  /// Histogram restricted to the words selected by `selector` (bit X set =>
  /// word X participates). Used for OSV0/OSV1 with selector ~f / f.
  [[nodiscard]] SensitivityHistogram histogram_within(const TruthTable& selector) const;

 private:
  /// Planes needed to count up to n = kMaxVars.
  static constexpr std::size_t kMaxPlanes = std::bit_width(static_cast<unsigned>(kMaxVars));

  [[nodiscard]] std::uint64_t plane_word(std::size_t plane, std::size_t word) const noexcept
  {
    return plane_words_[plane * num_words_ + word];
  }

  int num_vars_;
  std::size_t num_planes_;
  std::size_t num_words_;
  std::vector<std::uint64_t> plane_words_;  ///< plane-major: plane p at [p * num_words_, ...)
  std::array<std::uint32_t, kMaxVars> influences_{};
};

/// OSV (Definition 8) as a histogram over sensitivity levels 0..n.
[[nodiscard]] SensitivityHistogram osv(const TruthTable& tt);

/// OSV1: histogram over the 1-words of f.
[[nodiscard]] SensitivityHistogram osv1(const TruthTable& tt);

/// OSV0: histogram over the 0-words of f.
[[nodiscard]] SensitivityHistogram osv0(const TruthTable& tt);

/// Maximum sensitivity sen(f) (Definition 4).
[[nodiscard]] int sensitivity(const TruthTable& tt);

/// sen1(f): maximum local sensitivity over 1-words (0 if f is constant 0).
[[nodiscard]] int sensitivity1(const TruthTable& tt);

/// sen0(f): maximum local sensitivity over 0-words (0 if f is constant 1).
[[nodiscard]] int sensitivity0(const TruthTable& tt);

/// Reference implementation: per-point loop over all words and variables.
[[nodiscard]] std::vector<int> sensitivity_profile_naive(const TruthTable& tt);

/// Expands a histogram into the paper's sorted-multiset display form,
/// e.g. {2: x1, ...} -> (0, 2, 2, 2).
[[nodiscard]] std::vector<std::uint32_t> histogram_to_sorted(const SensitivityHistogram& hist);

}  // namespace facet
