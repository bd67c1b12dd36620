/// \file msv.hpp
/// \brief Mixed Signature Vector construction (Algorithm 1, line 6).
///
/// The paper's classifier computes, per function, a set of signature vectors
/// (OCV1, OCV2, OIV, OSV, OSDV), concatenates them into a Mixed Signature
/// Vector (MSV), and hashes the MSV to obtain the NPN class. Because every
/// component is invariant under NP transformations (Theorems 1-4), equal
/// MSVs are a *necessary* condition for NPN equivalence: the classifier
/// never splits a true class, but may merge distinct classes whose
/// signatures collide (the accuracy gap of Tables II/III).
///
/// Output polarity (the final N of NPN) is handled as in §III-B:
/// * unbalanced functions are polarity-canonicalized by satisfy count
///   (use the polarity with fewer 1-minterms), reducing NPN to PN;
/// * balanced functions take the lexicographic minimum of the full MSV over
///   both polarities. This refines the paper's "put the smaller vector in
///   OSV0" rule: minimizing the *whole* vector keeps the OSV/OSDV pairing of
///   Theorems 3-4 consistent across components.
///
/// The kernel shares work across families and writes each polarity
/// into the result buffer, whose length is fixed by n and the config:
/// * OCV1 and OCV2 come from one fused cofactor pass (ocv12_into in
///   cofactor.hpp): per word, f_i = f ∧ x_i is formed once and
///   c1[i] = |f x_i|, c11[i,j] = |f_i ∧ x_j| give every 1- and 2-cofactor
///   count; each vector is sorted by counting, its entries being bounded by
///   the face size 2^(n−ℓ);
/// * OIV, OSV and OSDV come from one SensitivityProfile: the influences are
///   popcount(d_i)/2 of the same difference masks d_i = f ⊕ flip_i(f) that
///   the profile's bit planes are built from. OSV0/OSV1 and OSDV0/OSDV1
///   are written straight into the result buffer (histogram_within_into,
///   osdv_within_into);
/// * the complement ~f and the profile (sensitivity is the same for f and
///   ~f) are built once per call and serve both polarities, so an
///   unbalanced function at n >= 8 allocates three times: the result, ~f
///   and the profile planes.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "facet/tt/truth_table.hpp"

namespace facet {

/// Selects which signature families participate in the MSV. The presets
/// reproduce the columns of Table II.
struct SignatureConfig {
  bool use_ocv1 = false;  ///< 1-ary ordered cofactor vector (+ satisfy count)
  bool use_ocv2 = false;  ///< 2-ary ordered cofactor vector
  bool use_ocv3 = false;  ///< 3-ary ordered cofactor vector (extension)
  bool use_oiv = false;   ///< ordered influence vector
  bool use_osv = false;   ///< ordered sensitivity vectors (0/1-split)
  bool use_osdv = false;  ///< ordered sensitivity distance vectors (0/1-split)
  bool use_owv = false;   ///< ordered Walsh vector (spectral extension, [7])

  [[nodiscard]] static SignatureConfig oiv_only() { return {.use_oiv = true}; }
  [[nodiscard]] static SignatureConfig ocv1_only() { return {.use_ocv1 = true}; }
  [[nodiscard]] static SignatureConfig osv_only() { return {.use_osv = true}; }
  [[nodiscard]] static SignatureConfig oiv_osv() { return {.use_oiv = true, .use_osv = true}; }
  [[nodiscard]] static SignatureConfig ocv1_osv() { return {.use_ocv1 = true, .use_osv = true}; }
  [[nodiscard]] static SignatureConfig ocv1_ocv2_osv()
  {
    return {.use_ocv1 = true, .use_ocv2 = true, .use_osv = true};
  }
  [[nodiscard]] static SignatureConfig oiv_osv_osdv()
  {
    return {.use_oiv = true, .use_osv = true, .use_osdv = true};
  }
  /// The full classifier of Algorithm 1: OCV1 + OCV2 + OIV + OSV + OSDV.
  [[nodiscard]] static SignatureConfig all()
  {
    return {.use_ocv1 = true, .use_ocv2 = true, .use_oiv = true, .use_osv = true, .use_osdv = true};
  }
  /// Spectral-only configuration (extension; see walsh.hpp).
  [[nodiscard]] static SignatureConfig owv_only() { return {.use_owv = true}; }
  /// Everything including the extension families (OCV3, OWV).
  [[nodiscard]] static SignatureConfig all_extended()
  {
    return {.use_ocv1 = true, .use_ocv2 = true, .use_ocv3 = true, .use_oiv = true,
            .use_osv = true,  .use_osdv = true, .use_owv = true};
  }

  /// Human-readable name, e.g. "OCV1+OSV".
  [[nodiscard]] std::string name() const;
};

/// Builds the MSV of `tt` under `config`. MSVs of NPN-equivalent functions
/// are equal; classification is equality of these vectors.
[[nodiscard]] std::vector<std::uint32_t> build_msv(const TruthTable& tt, const SignatureConfig& config);

/// Convenience: 64-bit hash of the MSV (Algorithm 1, line 7). Classification
/// in this library keys on the full vector so hash collisions cannot merge
/// classes; the hash is exposed for bucketing and telemetry.
[[nodiscard]] std::uint64_t msv_hash(const TruthTable& tt, const SignatureConfig& config);

/// All signature vectors of one function in the paper's display layout
/// (sorted multisets; OSDV in the (sigma_0..sigma_n) flattening), computed on
/// the function as-is (no polarity canonicalization). Reproduces Table I.
struct SignatureSummary {
  std::vector<std::uint32_t> ocv1;
  std::vector<std::uint32_t> ocv2;
  std::vector<std::uint32_t> oiv;
  std::vector<std::uint32_t> osv1_sorted;
  std::vector<std::uint32_t> osv0_sorted;
  std::vector<std::uint32_t> osv_sorted;
  std::vector<std::uint64_t> osdv1;
  std::vector<std::uint64_t> osdv0;
  std::vector<std::uint64_t> osdv;
};

[[nodiscard]] SignatureSummary summarize_signatures(const TruthTable& tt);

/// Renders a vector as the paper prints them: "(1,1,1,3,3,3)".
template <typename T>
[[nodiscard]] std::string vector_to_string(const std::vector<T>& v)
{
  std::string out = "(";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += std::to_string(v[i]);
  }
  out += ")";
  return out;
}

}  // namespace facet
