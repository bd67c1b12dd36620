/// \file cofactor.hpp
/// \brief Face characteristics: cofactors and ordered cofactor vectors.
///
/// Implements Definitions 1, 2 and 6 of the paper. A cofactor f_{x_i = v}
/// fixes one variable; its satisfy count is the number of 1-minterms on the
/// corresponding face of the hypercube. The ℓ-ary ordered cofactor vector
/// OCV_ℓ is the sorted multiset of the satisfy counts of all C(n,ℓ)·2^ℓ
/// ℓ-variable cofactors. Equality of OCV_ℓ is a prerequisite for NPN
/// equivalence (Abdollahi et al. [3], cited as prior work in §III-B).

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "facet/tt/truth_table.hpp"

namespace facet {

/// Satisfy count |f| — the 0-ary cofactor signature (Definition 2).
[[nodiscard]] inline std::uint64_t satisfy_count(const TruthTable& tt) noexcept { return tt.count_ones(); }

/// Satisfy count of the 1-ary cofactor f_{x_var = value}.
[[nodiscard]] std::uint32_t cofactor_count(const TruthTable& tt, int var, bool value);

/// The cofactor f_{x_var = value} as a function of the same n variables
/// (the fixed variable becomes irrelevant: both halves hold the face value).
[[nodiscard]] TruthTable cofactor(const TruthTable& tt, int var, bool value);

/// Satisfy counts of all 2^ℓ cofactors of the variable subset `vars`
/// (ℓ = vars.size()). Entry a holds |f_{vars = a}| with bit k of `a` giving
/// the value assigned to vars[k].
[[nodiscard]] std::vector<std::uint32_t> cofactor_counts(const TruthTable& tt, std::span<const int> vars);

/// Number of entries of OCV_ℓ at width n: C(n, ℓ)·2^ℓ.
[[nodiscard]] std::size_t ocv_size(int n, int ell) noexcept;

/// OCV_1 and OCV_2 from one fused cofactor pass (the MSV kernel). Per word
/// it forms f_i = f ∧ x_i once per variable and counts c1[i] = |f x_i| and
/// c11[i,j] = |f_i ∧ x_j|. Every cofactor count follows from these and |f|:
/// the pair (|f| − c1[i], c1[i]) for x_i, and c11, c1[i] − c11,
/// c1[j] − c11, |f| − c1[i] − c1[j] + c11 for the pair (x_i, x_j). Each
/// vector is then sorted by counting, its entries being bounded by the face
/// size 2^(n−ℓ). Writes ocv_size(n, 1) entries to `ocv1_out` and
/// ocv_size(n, 2) to `ocv2_out`; a null output is skipped (and skips the
/// pair counts). `ocv2_out` must be null for n < 2.
void ocv12_into(const TruthTable& tt, std::uint32_t* ocv1_out, std::uint32_t* ocv2_out);

/// 1-ary ordered cofactor vector OCV_1 (Definition 6): the 2n cofactor
/// satisfy counts, sorted in non-decreasing order (ocv12_into).
[[nodiscard]] std::vector<std::uint32_t> ocv1(const TruthTable& tt);

/// ℓ-ary ordered cofactor vector OCV_ℓ: sorted satisfy counts of all
/// C(n,ℓ)·2^ℓ cofactors of ℓ distinct variables. ℓ = 1, 2 run the fused
/// pass of ocv12_into; ℓ >= 3 counts each subset's cofactors and sorts by
/// counting.
[[nodiscard]] std::vector<std::uint32_t> ocv(const TruthTable& tt, int ell);

/// Unsorted per-variable cofactor count pairs: entry i is
/// {|f_{x_i=0}|, |f_{x_i=1}|}. Used by the canonical-form baselines for
/// per-variable keys and phase decisions.
struct CofactorPair {
  std::uint32_t count0;
  std::uint32_t count1;
  friend auto operator<=>(const CofactorPair&, const CofactorPair&) = default;
};
[[nodiscard]] std::vector<CofactorPair> cofactor_pairs(const TruthTable& tt);

}  // namespace facet
