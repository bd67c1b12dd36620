/// \file fp_classifier.hpp
/// \brief The paper's NPN classifier (Algorithm 1): face + point signatures,
///        then a hash — no transformation enumeration.
///
/// For each truth table the classifier computes the configured signature
/// vectors (OCV1, OCV2, OIV, OSV, OSDV by default), concatenates them into
/// the Mixed Signature Vector and groups functions by MSV equality. Because
/// every signature is an NPN invariant (Theorems 1-4), the classifier never
/// splits an equivalence class; signature collisions between inequivalent
/// functions can merge classes, which is the accuracy gap Tables II/III
/// measure (exact through n = 7 on the paper's sets, slightly under from
/// n = 8).
///
/// Runtime is signature computation plus hashing only — linear in the number
/// of functions with a per-function cost depending only on n, which is the
/// stable-runtime property of Fig. 5. Keys are hashed by hash_u32_span, a
/// four-lane hash whose rounds do not wait on each other (util/hash.hpp).
/// Class ids do not depend on that hash: each id is the dense index of the
/// class's first occurrence in input order.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "facet/npn/classifier.hpp"
#include "facet/sig/msv.hpp"
#include "facet/util/hash.hpp"

namespace facet {

/// Classifies by MSV equality under `config` (default: all signatures, the
/// paper's full classifier). Classes are keyed on the full MSV, so hash
/// collisions cannot merge classes; use this variant wherever class counts
/// feed an accuracy comparison.
[[nodiscard]] ClassificationResult classify_fp(std::span<const TruthTable> funcs,
                                               const SignatureConfig& config = SignatureConfig::all());

/// Algorithm 1's literal "class <- hash(MSV)" step: classes keyed on a
/// 128-bit hash of the MSV. Constant-size keys keep the class map compact
/// and cache-friendly at millions of functions (the Fig. 5 regime); a
/// collision would need ~2^64 classes to become likely.
[[nodiscard]] ClassificationResult classify_fp_hashed(std::span<const TruthTable> funcs,
                                                      const SignatureConfig& config = SignatureConfig::all());

/// The class key: the full MSV (classify_fp) or its 128-bit hash
/// (classify_fp_hashed).
enum class MsvKeyKind { kFull, kHash128 };

/// The class key of classify_fp and classify_fp_hashed, grouped by the
/// shared first-occurrence loop (FirstOccurrenceGrouper, classifier.hpp).
/// key_of() is pure, so BatchEngine builds MSVs and their keys in parallel
/// and only the grouping runs in order; its fp results equal the sequential
/// classifiers' by construction.
class MsvGrouper {
 public:
  /// An MSV's class key with its hash computed once. Under kFull it holds
  /// the MSV itself, so a hash collision cannot merge classes (Algorithm 1's
  /// hash is an implementation device, not the class identity); under
  /// kHash128 it holds only two 64-bit hashes of it.
  struct Key {
    std::vector<std::uint32_t> msv;
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    friend bool operator==(const Key&, const Key&) = default;
  };

  explicit MsvGrouper(MsvKeyKind kind) : kind_{kind} {}

  [[nodiscard]] Key key_of(std::vector<std::uint32_t> msv) const;

  /// Class id of the next function, whose key is `key`.
  [[nodiscard]] std::uint32_t class_of(Key key) { return classes_.class_of(std::move(key)); }

  [[nodiscard]] std::size_t num_classes() const noexcept { return classes_.num_classes(); }

 private:
  struct KeyHash {
    [[nodiscard]] std::size_t operator()(const Key& key) const noexcept
    {
      return static_cast<std::size_t>(key.lo);
    }
  };

  MsvKeyKind kind_;
  FirstOccurrenceGrouper<Key, KeyHash> classes_;
};

}  // namespace facet
