#include "facet/npn/hierarchical.hpp"

#include <unordered_map>
#include <utility>

#include "facet/npn/codesign.hpp"
#include "facet/npn/semi_canonical.hpp"

namespace facet {

ClassificationResult classify_hierarchical(std::span<const TruthTable> funcs, std::size_t refine_budget)
{
  ClassificationResult result;
  result.class_of.reserve(funcs.size());

  // Level 1: group by semi-canonical image. The image itself is an
  // NPN-equivalent member of the class, so it doubles as the group
  // representative for the refinement level.
  std::unordered_map<TruthTable, std::uint32_t, TruthTableHash> final_class_of_semi;
  FirstOccurrenceGrouper<TruthTable, TruthTableHash> refined_classes;
  CodesignOptions refine_options;
  refine_options.budget = refine_budget;

  for (const auto& f : funcs) {
    TruthTable semi = semi_canonical(f);
    auto it = final_class_of_semi.find(semi);
    if (it == final_class_of_semi.end()) {
      // Level 2: refine this new representative only.
      const std::uint32_t cls = refined_classes.class_of(codesign_canonical(semi, refine_options));
      it = final_class_of_semi.emplace(std::move(semi), cls).first;
    }
    result.class_of.push_back(it->second);
  }
  result.num_classes = refined_classes.num_classes();
  return result;
}

}  // namespace facet
