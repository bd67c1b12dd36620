/// \file batch_engine.hpp
/// \brief Multi-threaded batch NPN classification over every classifier in
///        the library.
///
/// The engine wraps each sequential classifier (exact, exhaustive/Kitty,
/// fp, fp-hashed, semi-canonical, hierarchical, co-designed) behind one API
/// and runs every one of them in the same shape:
///
///  1. dedup: the distinct inputs, in first-occurrence order — identical
///     tables always share a class, so each key is computed once;
///  2. key: the class key of every distinct input, in parallel chunks on a
///     worker pool (work_queue.hpp);
///  3. group: dense ids by first occurrence in input order, through the
///     sequential classifiers' own grouping loop (FirstOccurrenceGrouper,
///     classifier.hpp), then copied onto the duplicates.
///
/// The key is the wrapped classifier's own: the MSV key (MsvGrouper) for
/// fp and fp-hashed; the canonical image for kitty, semi and codesign; for
/// hier, the codesign refinement of the semi image, computed once per
/// distinct semi image; for exact, the (MSV bucket, representative) pair of
/// classify_exact's matcher loop (ExactBucket), with the buckets run in
/// parallel and each bucket's members matched in input order. Every wrapped
/// classifier classes a function by its key alone and numbers classes by
/// first occurrence, so the result is bit-identical to the sequential
/// classifier's output — same num_classes, same class_of vector — for any
/// thread count. The batch-engine tests assert it for every kind.
///
/// kitty canonicalizes inputs wider than the NPN4 table through one
/// engine-wide SemiclassMemo (semiclass.hpp), the memo the class store's
/// memo tier uses: a new member of a class already canonicalized costs a
/// matcher probe, not a canonicalization. The memo is thread-safe and is
/// the only state the engine keeps across classify() calls.

#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "facet/npn/classifier.hpp"
#include "facet/npn/codesign.hpp"
#include "facet/obs/histogram.hpp"
#include "facet/sig/msv.hpp"
#include "facet/tt/truth_table.hpp"

namespace facet {

class SemiclassMemo;
class WorkerPool;

/// The sequential classifier a BatchEngine wraps.
enum class ClassifierKind {
  kExact,          ///< classify_exact: signature buckets + complete matcher
  kExhaustive,     ///< classify_exhaustive: Kitty-style canonical walk (n <= 8)
  kFp,             ///< classify_fp: full-MSV equality (Algorithm 1)
  kFpHashed,       ///< classify_fp_hashed: 128-bit MSV hash keys
  kSemiCanonical,  ///< classify_semi_canonical: Huang FPT'13 analog
  kHierarchical,   ///< classify_hierarchical: Petkovska FPL'16 analog
  kCodesign,       ///< classify_codesign: Zhou TC'20 analog
};

/// Stable CLI-facing name ("exact", "kitty", "fp", "fp-hashed", "semi",
/// "hier", "codesign").
[[nodiscard]] std::string classifier_kind_name(ClassifierKind kind);

/// Inverse of classifier_kind_name; nullopt for unknown names.
[[nodiscard]] std::optional<ClassifierKind> classifier_kind_from_name(std::string_view name);

struct BatchEngineOptions {
  /// Worker threads (including the calling thread); 0 = hardware concurrency.
  std::size_t num_threads = 0;
  /// Signature configuration for the fp kinds and exact bucketing.
  SignatureConfig signature = SignatureConfig::all();
  /// Options forwarded to the co-designed canonical form (kCodesign).
  CodesignOptions codesign{};
  /// Refinement budget forwarded to classify_hierarchical.
  std::size_t hierarchical_refine_budget = 64;
};

/// Telemetry of one classify() call.
struct BatchEngineStats {
  std::size_t threads = 0;  ///< workers used (incl. calling thread)
  /// Always 0: the engine has no shards. Kept because perfbench's
  /// library_classify still reports it as engine.max_shard_share.
  std::size_t max_shard_size = 0;
  std::size_t cache_hits = 0;    ///< duplicate inputs, answered by their first occurrence
  std::size_t cache_misses = 0;  ///< distinct inputs, each keyed once
};

/// Reusable parallel batch classifier. Thread-safe for sequential reuse
/// (one classify() at a time).
class BatchEngine {
 public:
  explicit BatchEngine(ClassifierKind kind, BatchEngineOptions options = {});
  ~BatchEngine();

  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  [[nodiscard]] ClassifierKind kind() const noexcept { return kind_; }
  [[nodiscard]] const BatchEngineOptions& options() const noexcept { return options_; }
  [[nodiscard]] std::size_t num_threads() const noexcept;

  /// Classifies `funcs`; the result is bit-identical to the wrapped
  /// sequential classifier's output on the same span.
  [[nodiscard]] ClassificationResult classify(std::span<const TruthTable> funcs,
                                              BatchEngineStats* stats = nullptr);

  /// Drops the semiclass memo (kitty's only cross-call state).
  void clear_cache();

 private:
  ClassifierKind kind_;
  BatchEngineOptions options_;
  std::unique_ptr<WorkerPool> pool_;
  /// kExhaustive: every class canonicalized so far, shared by all workers.
  std::unique_ptr<SemiclassMemo> memo_;
  /// `facet_batch_shard_classify_latency{classifier=...}` — one sample per
  /// parallel chunk of key computation, resolved once at construction
  /// (obs/registry.hpp).
  obs::LatencyHistogram* chunk_latency_ = nullptr;
};

/// One-shot convenience wrapper around a temporary BatchEngine.
[[nodiscard]] ClassificationResult classify_batch(std::span<const TruthTable> funcs, ClassifierKind kind,
                                                  const BatchEngineOptions& options = {},
                                                  BatchEngineStats* stats = nullptr);

}  // namespace facet
