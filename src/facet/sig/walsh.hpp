/// \file walsh.hpp
/// \brief Spectral signatures: the Walsh-Hadamard coefficient family.
///
/// The paper's related work (§I, [7]) lists Walsh spectra among the
/// signature families used for Boolean matching; this module provides them
/// as an optional extension to the face/point families so the Table II
/// sweep can include a spectral column.
///
/// With the +/-1 encoding F(X) = 1 - 2 f(X), the Walsh coefficient of mask
/// S is W(S) = sum_X F(X) * (-1)^{popcount(S & X)}. NPN transformations act
/// benignly on the spectrum:
///   * permuting inputs permutes the masks within each weight layer,
///   * negating input i flips the sign of W(S) for S with bit i set,
///   * negating the output flips the sign of every W(S).
/// Hence the multiset of |W(S)| per mask-weight layer is a full NPN
/// invariant — the ordered Walsh vector (OWV) below.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "facet/tt/truth_table.hpp"

namespace facet {

/// Walsh transform of the 0/1 indicator of a point set: out[S] is
/// sum_{X in points} (-1)^{popcount(S & X)}. `out` must hold
/// points.num_bits() entries. The three in-byte butterfly levels come from
/// a 256-row table, the rest from in-place integer butterflies: O(n 2^n),
/// no allocation. |out[S]| <= |points|, so int32 is exact for every width.
void indicator_spectrum_into(const TruthTable& points, std::span<std::int32_t> out) noexcept;

/// Full Walsh-Hadamard spectrum in the +/-1 encoding; entry S is W(S).
/// Since F = 1 - 2 f, W(S) = 2^n [S = 0] - 2 * (the indicator spectrum of
/// f), computed with the fast transform, O(2^n * n).
[[nodiscard]] std::vector<std::int32_t> walsh_spectrum(const TruthTable& tt);

/// Single coefficient (reference implementation, O(2^n)).
[[nodiscard]] std::int32_t walsh_coefficient(const TruthTable& tt, std::uint32_t mask);

/// Ordered Walsh vector: for each mask weight w = 0..n, the sorted |W(S)|
/// over the C(n, w) masks of that weight, concatenated. An NPN invariant
/// (see file comment); length 2^n.
[[nodiscard]] std::vector<std::uint32_t> owv(const TruthTable& tt);

/// Coarser variant: per-layer sums of |W(S)| (n + 1 entries). Cheaper to
/// compare, strictly weaker than owv.
[[nodiscard]] std::vector<std::uint64_t> owv_layer_sums(const TruthTable& tt);

}  // namespace facet
