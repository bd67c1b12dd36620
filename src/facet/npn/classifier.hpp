/// \file classifier.hpp
/// \brief Shared types for NPN classification runs.
///
/// Every classifier in the library — the paper's signature classifier and
/// all baselines — consumes a list of truth tables and produces a
/// ClassificationResult: a class id per function plus the class count, which
/// is the quantity Tables II and III report.

#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "facet/tt/truth_table.hpp"

namespace facet {

struct ClassificationResult {
  std::size_t num_classes = 0;
  /// class_of[k] is the class id (0-based, dense) of the k-th input function.
  std::vector<std::uint32_t> class_of;

  /// Histogram of class sizes (class id -> member count).
  [[nodiscard]] std::vector<std::uint32_t> class_sizes() const
  {
    std::vector<std::uint32_t> sizes(num_classes, 0);
    for (const auto c : class_of) {
      ++sizes[c];
    }
    return sizes;
  }
};

/// The grouping loop of every classifier: takes class keys in input order
/// and gives each the dense id of its key's first occurrence. It looks a
/// key up before inserting it, so a repeated key never builds (and frees) a
/// map node.
template <typename Key, typename Hash = std::hash<Key>>
class FirstOccurrenceGrouper {
 public:
  /// Class id of the next function, whose key is `key`.
  [[nodiscard]] std::uint32_t class_of(Key key)
  {
    if (const auto it = classes_.find(key); it != classes_.end()) {
      return it->second;
    }
    const auto id = static_cast<std::uint32_t>(classes_.size());
    classes_.emplace(std::move(key), id);
    return id;
  }

  [[nodiscard]] std::size_t num_classes() const noexcept { return classes_.size(); }

 private:
  std::unordered_map<Key, std::uint32_t, Hash> classes_;
};

/// Groups functions by the image of a canonicalization function: two inputs
/// share a class iff their canonical tables are bit-identical. Since the
/// canonical table is always an NPN-transform image of the input, such
/// classifiers never merge inequivalent functions (they can only split true
/// classes when the canonicalization is heuristic).
[[nodiscard]] inline ClassificationResult classify_by_canonical(
    std::span<const TruthTable> funcs, const std::function<TruthTable(const TruthTable&)>& canonical)
{
  ClassificationResult result;
  result.class_of.reserve(funcs.size());
  FirstOccurrenceGrouper<TruthTable, TruthTableHash> grouper;
  for (const auto& f : funcs) {
    result.class_of.push_back(grouper.class_of(canonical(f)));
  }
  result.num_classes = grouper.num_classes();
  return result;
}

}  // namespace facet
