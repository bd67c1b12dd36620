#include "facet/sig/msv.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
#include <span>

#include "facet/sig/cofactor.hpp"
#include "facet/sig/influence.hpp"
#include "facet/sig/sensitivity.hpp"
#include "facet/sig/sensitivity_distance.hpp"
#include "facet/sig/walsh.hpp"
#include "facet/util/hash.hpp"

namespace facet {

std::string SignatureConfig::name() const
{
  std::string out;
  const auto append = [&out](const char* part) {
    if (!out.empty()) {
      out += "+";
    }
    out += part;
  };
  if (use_ocv1) {
    append("OCV1");
  }
  if (use_ocv2) {
    append("OCV2");
  }
  if (use_ocv3) {
    append("OCV3");
  }
  if (use_oiv) {
    append("OIV");
  }
  if (use_osv) {
    append("OSV");
  }
  if (use_osdv) {
    append("OSDV");
  }
  if (use_owv) {
    append("OWV");
  }
  return out.empty() ? "none" : out;
}

namespace {

std::uint32_t* write_u32(std::uint32_t* out, std::span<const std::uint32_t> v)
{
  return std::copy(v.begin(), v.end(), out);
}

/// Length of one polarity's raw MSV: it depends on n and the config only.
/// OCV_ℓ's arity is capped at n, as build_raw_msv caps it.
[[nodiscard]] std::size_t msv_capacity(int n, const SignatureConfig& config)
{
  const std::size_t un = static_cast<std::size_t>(n);
  std::size_t cap = 0;
  if (config.use_ocv1) {
    cap += 1 + 2 * un;
  }
  if (config.use_ocv2) {
    cap += ocv_size(n, std::min(2, n));
  }
  if (config.use_ocv3) {
    cap += ocv_size(n, std::min(3, n));
  }
  if (config.use_oiv) {
    cap += un;
  }
  if (config.use_osv) {
    cap += 2 * (un + 1);
  }
  if (config.use_osdv) {
    cap += 2 * (un + 1) * un;
  }
  if (config.use_owv) {
    cap += std::size_t{1} << un;
  }
  return cap;
}

/// Writes the MSV of one polarity candidate g (PN-invariant by Theorems
/// 1-4) to out[0, msv_capacity): OCV1 and OCV2 from one fused cofactor
/// pass, OIV, OSV and OSDV from `profile`, the sensitivity profile of g
/// (equal to that of ~g, so the caller builds it once for both polarities;
/// null when the config uses none of the three). `not_g` is ~g, built once
/// by the caller as well. Returns the end of the written range.
std::uint32_t* build_raw_msv(const TruthTable& g, const TruthTable& not_g, const SensitivityProfile* profile,
                             const SignatureConfig& config, std::uint32_t* out)
{
  const int n = g.num_vars();
  const std::size_t levels = static_cast<std::size_t>(n) + 1;
  std::uint32_t* ocv1_out = nullptr;
  std::uint32_t* ocv2_out = nullptr;
  if (config.use_ocv1) {
    *out++ = static_cast<std::uint32_t>(satisfy_count(g));
    ocv1_out = out;
    out += ocv_size(n, 1);
  }
  if (config.use_ocv2) {
    if (n >= 2) {
      ocv2_out = out;
      out += ocv_size(n, 2);
    } else {
      out = write_u32(out, ocv(g, n));
    }
  }
  if (ocv1_out != nullptr || ocv2_out != nullptr) {
    ocv12_into(g, ocv1_out, ocv2_out);
  }
  if (config.use_ocv3) {
    out = write_u32(out, ocv(g, std::min(3, n)));
  }
  if (config.use_oiv) {
    std::uint32_t* const oiv_out = out;
    out = write_u32(out, profile->influences());
    std::sort(oiv_out, out);
  }
  if (config.use_osv) {
    profile->histogram_within_into(not_g, out);  // OSV0
    out += levels;
    profile->histogram_within_into(g, out);  // OSV1
    out += levels;
  }
  if (config.use_osdv) {
    const std::size_t osdv_size = levels * static_cast<std::size_t>(n);
    osdv_within_into(*profile, not_g, out);  // OSDV0
    out += osdv_size;
    osdv_within_into(*profile, g, out);  // OSDV1
    out += osdv_size;
  }
  if (config.use_owv) {
    out = write_u32(out, owv(g));
  }
  return out;
}

}  // namespace

std::vector<std::uint32_t> build_msv(const TruthTable& tt, const SignatureConfig& config)
{
  const std::uint64_t ones = tt.count_ones();
  const std::uint64_t half = tt.num_bits() / 2;
  const std::size_t size = msv_capacity(tt.num_vars(), config);
  const TruthTable complement = ~tt;
  std::optional<SensitivityProfile> profile;
  if (config.use_oiv || config.use_osv || config.use_osdv) {
    profile.emplace(tt);
  }
  const SensitivityProfile* const shared_profile = profile ? &*profile : nullptr;

  // Unbalanced: the polarity with fewer 1-minterms.
  const bool negate = ones > half;
  std::vector<std::uint32_t> msv(size);
  [[maybe_unused]] const std::uint32_t* end =
      build_raw_msv(negate ? complement : tt, negate ? tt : complement, shared_profile, config, msv.data());
  assert(end == msv.data() + size);
  if (ones != half) {
    return msv;
  }
  // Balanced: output polarity is not decidable from the satisfy count
  // (Theorems 3-4); take the lexicographically smaller MSV of the two
  // polarities so equivalent functions agree on the pairing.
  std::vector<std::uint32_t> negated(size);
  build_raw_msv(complement, tt, shared_profile, config, negated.data());
  if (negated < msv) {
    msv.swap(negated);
  }
  return msv;
}

std::uint64_t msv_hash(const TruthTable& tt, const SignatureConfig& config)
{
  const auto msv = build_msv(tt, config);
  return hash_u32_span(msv);
}

SignatureSummary summarize_signatures(const TruthTable& tt)
{
  SignatureSummary s;
  s.ocv1 = ocv1(tt);
  s.ocv2 = ocv(tt, std::min(2, tt.num_vars()));
  s.oiv = oiv(tt);

  const SensitivityProfile profile{tt};
  s.osv1_sorted = histogram_to_sorted(profile.histogram_within(tt));
  s.osv0_sorted = histogram_to_sorted(profile.histogram_within(~tt));
  s.osv_sorted = histogram_to_sorted(profile.histogram());
  s.osdv1 = osdv_within_from_profile(profile, tt);
  s.osdv0 = osdv_within_from_profile(profile, ~tt);
  s.osdv = osdv_from_profile(profile);
  return s;
}

}  // namespace facet
