/// \file sensitivity_distance.hpp
/// \brief Second-order point characteristic: sensitivity-distance vectors.
///
/// Implements Definitions 9 and 10 of the paper. For every pair of words
/// (X, Y), X < Y, with equal local sensitivity sen(f,X) = sen(f,Y) = s, the
/// pair contributes to delta_{s,j} where j = h(X, Y) is the Hamming
/// distance. The ordered sensitivity distance vector
///   OSDV(f) = (sigma_0, ..., sigma_n),  sigma_s = (delta_{s,1}, ..., delta_{s,n})
/// flattens these counts; OSDV1/OSDV0 restrict the pairs to 1-words/0-words.
/// Theorem 4: PN-equivalent functions share all three (with the balanced
/// 0/1 pairing caveat handled by the MSV builder).
///
/// The fast path counts each level set's pairs spectrally. For a point set
/// S with 0/1 Walsh transform S^(w) = sum_{X in S} (-1)^{popcount(w & X)},
/// the number of unordered pairs at Hamming distance j is
///   (sum_w S^(w)^2 * K_j(|w|)) / 2^(n+1),
/// where K_j is the Krawtchouk polynomial of width n. One in-place integer
/// butterfly pass (indicator_spectrum_into in walsh.hpp, O(n 2^n)) plus a
/// weight-bucketed sum of squares and an O(n^2) Krawtchouk fold give the
/// whole spectrum exactly, with no allocation per set. A quadratic
/// all-pairs routine (osdv_naive) is the test reference.

#pragma once

#include <cstdint>
#include <vector>

#include "facet/sig/sensitivity.hpp"
#include "facet/tt/truth_table.hpp"

namespace facet {

/// Flattened OSDV: entry s * n + (j - 1) holds delta_{s,j}; the layout
/// matches the paper's (sigma_0, ..., sigma_n) presentation, so for the
/// 3-majority f1, osdv(f1) = (0,0,1, 0,0,0, 6,6,3, 0,0,0).
using SensitivityDistanceVector = std::vector<std::uint64_t>;

/// OSDV over all words.
[[nodiscard]] SensitivityDistanceVector osdv(const TruthTable& tt);

/// OSDV1: pairs restricted to words with f(X) = 1.
[[nodiscard]] SensitivityDistanceVector osdv1(const TruthTable& tt);

/// OSDV0: pairs restricted to words with f(X) = 0.
[[nodiscard]] SensitivityDistanceVector osdv0(const TruthTable& tt);

/// Computes the distance spectrum of one point set: result[j-1] is the
/// number of unordered pairs of `points` at Hamming distance j.
/// `points` is a set of words encoded as a truth table bitmask.
[[nodiscard]] std::vector<std::uint64_t> pair_distance_spectrum(const TruthTable& points);

/// Shared fast path when the caller already has the sensitivity profile:
/// avoids recomputing the n difference masks per variant.
[[nodiscard]] SensitivityDistanceVector osdv_from_profile(const SensitivityProfile& profile);
[[nodiscard]] SensitivityDistanceVector osdv_within_from_profile(const SensitivityProfile& profile,
                                                                 const TruthTable& selector);

/// Reference implementation: quadratic loop over all word pairs.
[[nodiscard]] SensitivityDistanceVector osdv_naive(const TruthTable& tt);
[[nodiscard]] SensitivityDistanceVector osdv1_naive(const TruthTable& tt);
[[nodiscard]] SensitivityDistanceVector osdv0_naive(const TruthTable& tt);

}  // namespace facet
