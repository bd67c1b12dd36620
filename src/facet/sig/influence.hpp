/// \file influence.hpp
/// \brief Point-face characteristic: Boolean influence (Kahn-Kalai-Linial).
///
/// Implements Definitions 5 and 7 of the paper. The influence of x_i is the
/// probability that f is sensitive at x_i for a uniform random word. The
/// paper's footnote adopts the integer convention
///   inf(f, i) = |{X : f(X) != f(X^i)}| / 2,
/// which is always an integer because sensitive words come in pairs (X, X^i);
/// this library uses the same convention so the Table I values match exactly.
///
/// Theorem 1: PN-equivalent functions have identical ordered influence
/// vectors (and influence is also invariant under output negation, so OIV is
/// a full NPN invariant).
///
/// The functions here compute each influence from its own difference mask
/// d_i = f ⊕ flip_i(f). The MSV does not call them: it reads the same
/// popcount(d_i)/2 from SensitivityProfile::influences() (sensitivity.hpp),
/// whose bit planes are built from those masks anyway.

#pragma once

#include <cstdint>
#include <vector>

#include "facet/tt/truth_table.hpp"

namespace facet {

/// Integer influence of variable `var` (half the number of sensitive words).
[[nodiscard]] std::uint32_t influence(const TruthTable& tt, int var);

/// Unsorted per-variable influences (entry i is inf(f, i)).
[[nodiscard]] std::vector<std::uint32_t> influence_profile(const TruthTable& tt);

/// Ordered influence vector OIV (Definition 7): sorted influences.
[[nodiscard]] std::vector<std::uint32_t> oiv(const TruthTable& tt);

/// Total influence inf(f) = sum of per-variable influences (Definition 5).
[[nodiscard]] std::uint64_t total_influence(const TruthTable& tt);

/// Influence as the probability of Definition 5: inf(f,i) = |sensitive| / 2^n.
[[nodiscard]] double influence_probability(const TruthTable& tt, int var);

}  // namespace facet
