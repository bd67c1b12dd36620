/// \file exact_classifier.hpp
/// \brief Exact NPN classification for arbitrary n (the ground truth).
///
/// Tables II and III compare every method against the exact class count
/// ("Kitty when n <= 6 and the exact version in [19] when n > 6"). This
/// module provides that reference for any n the kernel supports:
///
///  1. bucket the functions by their full MSV — sound, because Theorems 1-4
///     make the MSV an NPN invariant, so equivalent functions always share a
///     bucket;
///  2. within a bucket, maintain class representatives and decide membership
///     with the complete pairwise matcher (matcher.hpp), which is exact in
///     both directions.
///
/// MSV collisions between inequivalent functions (the paper observes them
/// from n = 8) are resolved by the matcher, so the output is exact even
/// where the signature classifier alone is not.

#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "facet/npn/classifier.hpp"
#include "facet/npn/matcher.hpp"
#include "facet/sig/msv.hpp"

namespace facet {

/// Telemetry of one exact classification run: how much work the signature
/// buckets saved the complete matcher.
struct ExactClassifyStats {
  std::size_t buckets = 0;        ///< distinct MSVs seen
  std::size_t matcher_calls = 0;  ///< pairwise complete matches performed
  std::size_t matcher_hits = 0;   ///< matches that confirmed equivalence
};

/// The class representatives of one MSV bucket of classify_exact, probed
/// with the complete matcher in the order they joined. classify_exact and
/// BatchEngine{kExact} run every bucket through it, so both make the same
/// matcher calls.
class ExactBucket {
 public:
  /// Index of the first representative NPN equivalent to `f`; when none is,
  /// `f` becomes the next representative and its index is returned. Matcher
  /// keys are derived at a table's first probe and kept for later ones.
  [[nodiscard]] std::size_t match(const TruthTable& f, ExactClassifyStats* stats = nullptr);

 private:
  struct Rep {
    TruthTable table;
    std::optional<NpnMatchKeys> keys;
  };
  std::vector<Rep> reps_;
};

/// Exact NPN classification of `funcs` (all with the same variable count).
///
/// `bucket_config` selects the signature family used for bucketing. Any
/// NPN-invariant configuration is sound; stronger configurations shrink the
/// buckets and slash the number of complete-matcher calls. This realizes the
/// paper's closing remark that influence and sensitivity "have great
/// potential to be extended to the traditional method to achieve exact NPN
/// classification" — the ablation bench quantifies it.
[[nodiscard]] ClassificationResult classify_exact(std::span<const TruthTable> funcs,
                                                  const SignatureConfig& bucket_config = SignatureConfig::all(),
                                                  ExactClassifyStats* stats = nullptr);

/// Exact classification via the exhaustive canonical walk (n <= 8 only);
/// the Table III "Kitty" baseline.
[[nodiscard]] ClassificationResult classify_exhaustive(std::span<const TruthTable> funcs);

}  // namespace facet
