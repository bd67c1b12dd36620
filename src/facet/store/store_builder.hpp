/// \file store_builder.hpp
/// \brief Builds a ClassStore from a dataset via the parallel BatchEngine.
///
/// Classification runs on BatchEngine{kExhaustive} (exact canonical classes,
/// dense ids by first occurrence; the engine's SemiclassMemo spares a new
/// member of a seen class its canonicalization), then one exact
/// canonicalization with a witnessing transform per class — fanned out over
/// the worker pool — produces the store records. The resulting store answers
/// lookups with the exact class ids, sizes and partition the engine would
/// produce on the build dataset. The store depends on the engine here, never
/// the other way around: nothing under engine/ includes store/.

#pragma once

#include <span>

#include "facet/engine/batch_engine.hpp"
#include "facet/store/class_store.hpp"

namespace facet {

struct StoreBuildOptions {
  /// Worker threads for classification and canonicalization (0 = all cores).
  std::size_t num_threads = 0;
  /// Options of the produced store (hot-cache sizing).
  ClassStoreOptions store{};
  /// Optional telemetry of the underlying engine run.
  BatchEngineStats* stats = nullptr;
};

/// Classifies `funcs` and assembles the store. All functions must share one
/// width n <= 8 (the exact canonical walk's limit); throws
/// std::invalid_argument otherwise or when `funcs` is empty.
[[nodiscard]] ClassStore build_class_store(std::span<const TruthTable> funcs,
                                           const StoreBuildOptions& options = {});

}  // namespace facet
