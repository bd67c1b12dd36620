#include "facet/npn/exact_classifier.hpp"

#include <unordered_map>
#include <utility>

#include "facet/npn/exact_canon.hpp"
#include "facet/sig/msv.hpp"
#include "facet/util/hash.hpp"

namespace facet {

std::size_t ExactBucket::match(const TruthTable& f, ExactClassifyStats* stats)
{
  std::optional<NpnMatchKeys> f_keys;
  for (std::size_t r = 0; r < reps_.size(); ++r) {
    Rep& rep = reps_[r];
    if (!rep.keys) {
      rep.keys = npn_match_keys(rep.table);
    }
    if (!f_keys) {
      f_keys = npn_match_keys(f);
    }
    if (stats != nullptr) {
      ++stats->matcher_calls;
    }
    if (npn_match(rep.table, *rep.keys, f, *f_keys).has_value()) {
      if (stats != nullptr) {
        ++stats->matcher_hits;
      }
      return r;
    }
  }
  reps_.push_back(Rep{f, std::move(f_keys)});
  return reps_.size() - 1;
}

ClassificationResult classify_exact(std::span<const TruthTable> funcs, const SignatureConfig& bucket_config,
                                    ExactClassifyStats* stats)
{
  ClassificationResult result;
  result.class_of.reserve(funcs.size());

  struct Bucket {
    ExactBucket reps;
    std::vector<std::uint32_t> class_ids;  // class id of each representative
  };
  std::unordered_map<std::vector<std::uint32_t>, Bucket, U32VectorHash> buckets;
  // Identical truth tables short-circuit the matcher entirely.
  std::unordered_map<TruthTable, std::uint32_t, TruthTableHash> seen;

  std::uint32_t next_class = 0;

  for (const auto& f : funcs) {
    if (const auto it = seen.find(f); it != seen.end()) {
      result.class_of.push_back(it->second);
      continue;
    }
    auto& bucket = buckets[build_msv(f, bucket_config)];
    const std::size_t rep = bucket.reps.match(f, stats);
    if (rep == bucket.class_ids.size()) {
      bucket.class_ids.push_back(next_class++);
    }
    const std::uint32_t cls = bucket.class_ids[rep];
    seen.emplace(f, cls);
    result.class_of.push_back(cls);
  }
  result.num_classes = next_class;
  if (stats != nullptr) {
    stats->buckets = buckets.size();
  }
  return result;
}

ClassificationResult classify_exhaustive(std::span<const TruthTable> funcs)
{
  return classify_by_canonical(funcs, [](const TruthTable& tt) { return exact_npn_canonical(tt); });
}

}  // namespace facet
