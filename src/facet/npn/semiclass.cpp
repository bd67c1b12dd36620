#include "facet/npn/semiclass.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <utility>

#include "facet/sig/cofactor.hpp"
#include "facet/sig/influence.hpp"
#include "facet/util/hash.hpp"

namespace facet {

namespace {

/// Digest of one output polarity: satisfy count plus the sorted multiset of
/// per-variable (phase-insensitive cofactor pair, influence) tuples. Every
/// ingredient is PN-invariant, and sorting removes the variable order, so
/// PN-equivalent polarities digest identically.
[[nodiscard]] std::uint64_t polarity_digest(const TruthTable& g)
{
  const int n = g.num_vars();
  const auto pairs = cofactor_pairs(g);
  const auto inf = influence_profile(g);

  std::array<std::array<std::uint32_t, 3>, kMaxVars> tuples{};
  for (int i = 0; i < n; ++i) {
    const auto& p = pairs[static_cast<std::size_t>(i)];
    tuples[static_cast<std::size_t>(i)] = {std::min(p.count0, p.count1),
                                           std::max(p.count0, p.count1),
                                           inf[static_cast<std::size_t>(i)]};
  }
  std::sort(tuples.begin(), tuples.begin() + n);

  std::uint64_t h = hash_combine64(static_cast<std::uint64_t>(n), g.count_ones());
  for (int i = 0; i < n; ++i) {
    const auto& t = tuples[static_cast<std::size_t>(i)];
    h = hash_combine64(h, (static_cast<std::uint64_t>(t[0]) << 32) | t[1]);
    h = hash_combine64(h, t[2]);
  }
  return h;
}

/// Cofactor-ordered form for a fixed output polarity: flip each input so its
/// 1-side cofactor count is the smaller one, then move variables with small
/// 1-side counts to the most significant positions (position n-1 gets the
/// smallest), so the image's top blocks are as sparse as the one-pass
/// heuristic can make them.
[[nodiscard]] SemiclassResult form_polarity(const TruthTable& tt, bool output_neg)
{
  const TruthTable h = output_neg ? ~tt : tt;
  const int n = h.num_vars();
  const auto pairs = cofactor_pairs(h);

  NpnTransform t = NpnTransform::identity(n);
  t.output_neg = output_neg;

  std::array<std::uint32_t, kMaxVars> one_side{};
  std::array<std::uint32_t, kMaxVars> zero_side{};
  for (int i = 0; i < n; ++i) {
    std::uint32_t c0 = pairs[static_cast<std::size_t>(i)].count0;
    std::uint32_t c1 = pairs[static_cast<std::size_t>(i)].count1;
    if (c1 > c0) {
      t.input_neg |= 1u << i;
      std::swap(c0, c1);
    }
    one_side[static_cast<std::size_t>(i)] = c1;
    zero_side[static_cast<std::size_t>(i)] = c0;
  }

  std::array<int, kMaxVars> sorted{};
  std::iota(sorted.begin(), sorted.begin() + std::max(n, 1), 0);
  std::stable_sort(sorted.begin(), sorted.begin() + n, [&](int a, int b) {
    const auto ai = static_cast<std::size_t>(a);
    const auto bi = static_cast<std::size_t>(b);
    if (one_side[ai] != one_side[bi]) {
      return one_side[ai] < one_side[bi];
    }
    return zero_side[ai] < zero_side[bi];
  });
  for (int k = 0; k < n; ++k) {
    t.perm[static_cast<std::size_t>(sorted[static_cast<std::size_t>(k)])] =
        static_cast<std::uint8_t>(n - 1 - k);
  }

  return SemiclassResult{apply_transform_fast(tt, t), t};
}

}  // namespace

SemiclassKey semiclass_key(const TruthTable& tt)
{
  const std::uint64_t ones = tt.count_ones();
  const std::uint64_t bits = tt.num_bits();

  std::uint64_t digest = 0;
  if (2 * ones < bits) {
    digest = polarity_digest(tt);
  } else if (2 * ones > bits) {
    digest = polarity_digest(~tt);
  } else {
    // Balanced: neither polarity is distinguished by the satisfy count, but
    // complementation maps the polarity pair onto itself, so the min of the
    // two digests is still an orbit invariant.
    digest = std::min(polarity_digest(tt), polarity_digest(~tt));
  }
  return SemiclassKey{tt.num_vars(), digest};
}

SemiclassResult semiclass_form(const TruthTable& tt)
{
  const std::uint64_t ones = tt.count_ones();
  const std::uint64_t bits = tt.num_bits();
  if (2 * ones < bits) {
    return form_polarity(tt, false);
  }
  if (2 * ones > bits) {
    return form_polarity(tt, true);
  }
  SemiclassResult a = form_polarity(tt, false);
  SemiclassResult b = form_polarity(tt, true);
  return a.image <= b.image ? a : b;
}

std::optional<CanonResult> SemiclassMemo::find(const TruthTable& f, const SemiclassKey& key) const
{
  std::vector<std::shared_ptr<const Entry>> bucket;
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    if (const auto it = buckets_.find(key); it != buckets_.end()) {
      bucket = it->second;
    }
  }
  if (bucket.empty()) {
    return std::nullopt;
  }
  const NpnMatchKeys f_keys = npn_match_keys(f);
  for (const auto& entry : bucket) {
    if (const auto t = npn_match(f, f_keys, entry->canonical, entry->keys)) {
      return CanonResult{entry->canonical, *t};
    }
  }
  return std::nullopt;
}

void SemiclassMemo::insert(const SemiclassKey& key, const TruthTable& canonical)
{
  // The matcher keys are the expensive part of an entry: derive them before
  // taking the lock.
  auto entry = std::make_shared<const Entry>(Entry{canonical, npn_match_keys(canonical)});
  const std::lock_guard<std::mutex> lock{mutex_};
  if (size_ >= capacity_) {
    buckets_.clear();
    size_ = 0;
  }
  auto& bucket = buckets_[key];
  for (const auto& existing : bucket) {
    if (existing->canonical == canonical) {
      return;  // two racing inserters of one class: the first wins
    }
  }
  bucket.push_back(std::move(entry));
  ++size_;
}

std::size_t SemiclassMemo::size() const
{
  const std::lock_guard<std::mutex> lock{mutex_};
  return size_;
}

void SemiclassMemo::clear()
{
  const std::lock_guard<std::mutex> lock{mutex_};
  buckets_.clear();
  size_ = 0;
}

}  // namespace facet
