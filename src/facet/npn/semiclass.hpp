/// \file semiclass.hpp
/// \brief Invariant semiclass kernel and the semiclass memo built on it.
///
/// semi_canonical.hpp is the paper's -6 baseline: a one-pass cofactor-ordered
/// form whose index tie-breaks deliberately sacrifice invariance for speed.
/// This module is its NPN-invariant refinement, built for the semiclass
/// memo:
///
///  * semiclass_key(f) is a TRUE NPN invariant — every function in an NPN
///    orbit produces the same key, so NPN-equivalent functions provably share
///    a memo bucket. The key digests only invariant quantities: the
///    polarity-normalized satisfy count and, per variable, the phase-
///    insensitive cofactor pair and the influence (Theorem 1), as a sorted
///    multiset. For balanced functions (where output polarity is not
///    distinguished by the satisfy count) the digest is the min over both
///    polarities; cofactor counts complement to 2^(n-1) - c under output
///    negation while influence is unchanged, so the min is itself invariant.
///
///  * semiclass_form(f) is the one-pass cofactor-ordered orbit element in the
///    style of pressmold's npn_semiclass: choose the sparser output polarity,
///    flip each input so its 1-side cofactor is the smaller one, and sort
///    variables by 1-side count so the sparsest variable drives the most
///    significant position. Unlike the key, the image is NOT invariant (ties
///    are broken by index) — it is a cheap, usually-small member of the orbit,
///    used to seed the branch-and-bound canonicalizer's incumbent and to
///    constrain which permutations/phases the exact search must consider.
///
///  * SemiclassMemo is the one memo built on the key: canonical forms of
///    classes already canonicalized, bucketed by key, probed with the
///    matcher. The store's memo tier (class_store.hpp) and the batch engine
///    (batch_engine.hpp) each hold an instance.
///
/// Keys are 64-bit digests; distinct classes may collide. That is harmless by
/// construction: every memo probe is verified by the complete matcher
/// (matcher.hpp), which never reports a false match.

#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "facet/npn/exact_canon.hpp"
#include "facet/npn/matcher.hpp"
#include "facet/npn/transform.hpp"
#include "facet/tt/truth_table.hpp"

namespace facet {

/// NPN-invariant bucket key. Equal for every member of an NPN orbit;
/// inequality proves two functions are NOT NPN equivalent (up to the 64-bit
/// digest, whose collisions only cost a verified-and-rejected probe).
struct SemiclassKey {
  int num_vars = 0;
  std::uint64_t digest = 0;

  friend bool operator==(const SemiclassKey&, const SemiclassKey&) = default;
};

struct SemiclassKeyHash {
  [[nodiscard]] std::size_t operator()(const SemiclassKey& key) const noexcept
  {
    return static_cast<std::size_t>(key.digest ^ static_cast<std::uint64_t>(key.num_vars));
  }
};

/// Computes the invariant key of `tt`'s NPN orbit. O(n * 2^n / 64).
[[nodiscard]] SemiclassKey semiclass_key(const TruthTable& tt);

struct SemiclassResult {
  TruthTable image;
  /// Witness: apply_transform(input, transform) == image.
  NpnTransform transform;
};

/// One-pass cofactor-ordered semi-canonical form with a witnessing
/// transform. The image is in the NPN orbit of `tt` but is not itself an
/// orbit invariant (index tie-breaks); see the file comment.
[[nodiscard]] SemiclassResult semiclass_form(const TruthTable& tt);

/// The semiclass memo: exact canonical forms of NPN classes, bucketed by
/// semiclass key. find() answers a new member of a memoized class with one
/// key hash plus a signature-pruned matcher probe instead of an exact
/// canonicalization — sound, because NPN-equivalent functions share one
/// canonical form, and the matcher never reports a false match.
///
/// Thread-safe. A mutex is held only to copy a bucket out (find) or splice
/// an entry in (insert); matcher probes and key derivation run outside it
/// on immutable shared entries, so a reader verifying a candidate never
/// blocks an inserter.
class SemiclassMemo {
 public:
  static constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();

  /// `capacity` (>= 1) bounds the entries held; reaching it clears the
  /// memo wholesale before the next insert.
  explicit SemiclassMemo(std::size_t capacity = kUnbounded) : capacity_{capacity} {}

  /// The canonical form of `f` and a witness (apply_transform(f, transform)
  /// == canonical) when a class memoized under `key` — which must be
  /// semiclass_key(f) — is NPN equivalent to f; nullopt otherwise.
  [[nodiscard]] std::optional<CanonResult> find(const TruthTable& f, const SemiclassKey& key) const;

  /// Memoizes the class of exact canonical form `canonical` under `key`.
  /// No-op when the class is already held.
  void insert(const SemiclassKey& key, const TruthTable& canonical);

  /// Classes held.
  [[nodiscard]] std::size_t size() const;
  void clear();

 private:
  /// Immutable once published; buckets hold shared_ptrs so find() verifies
  /// candidates with no lock held.
  struct Entry {
    TruthTable canonical;
    NpnMatchKeys keys;  ///< npn_match_keys(canonical), computed once
  };

  mutable std::mutex mutex_;
  std::unordered_map<SemiclassKey, std::vector<std::shared_ptr<const Entry>>, SemiclassKeyHash>
      buckets_;
  std::size_t capacity_;
  std::size_t size_ = 0;
};

}  // namespace facet
