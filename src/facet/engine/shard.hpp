/// \file shard.hpp
/// \brief Invariant-keyed sharding of truth-table batches.
///
/// The batch engine partitions its input by a shard key that is constant on
/// every class the wrapped classifier can produce, so classifying shards
/// independently and merging is exactly equivalent to one sequential run.
/// The key hashes (input count, OCV1+OIV sub-MSV). The sub-MSV is an NPN
/// invariant (Theorems 1 and 2), and every sharded classifier's class key
/// implies NPN equivalence (exact, exhaustive, semi-canonical, co-designed,
/// hierarchical — their keys are true transform images), so no class can
/// straddle two shards.
///
/// The fp kinds (fp / fp-hashed) are not sharded: they class on MSV
/// equality, and the polarity chosen when minimizing a balanced function's
/// full MSV can differ from the one minimizing the prefix alone, so the
/// prefix key would not be safe. BatchEngine builds their MSVs in parallel
/// and groups them in input order instead (batch_engine.hpp).
///
/// Cheap-signature bucketing before expensive canonicalization is the same
/// lever arXiv:2308.12311 pulls for exact classification; here it doubles as
/// the parallel decomposition.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "facet/engine/work_queue.hpp"
#include "facet/tt/truth_table.hpp"

namespace facet {

/// Shard key of one function. Deterministic across runs and thread counts.
[[nodiscard]] std::uint64_t shard_key(const TruthTable& tt);

/// A partition of [0, funcs.size()) into shards, input order preserved
/// within each shard.
struct ShardPlan {
  std::size_t num_shards = 0;
  /// shard_of[i] is the shard of the i-th input function.
  std::vector<std::uint32_t> shard_of;
  /// members[s] lists the input indices of shard s, ascending.
  std::vector<std::vector<std::uint32_t>> members;

  [[nodiscard]] std::size_t max_shard_size() const
  {
    std::size_t max = 0;
    for (const auto& m : members) {
      max = m.size() > max ? m.size() : max;
    }
    return max;
  }
};

/// Builds the shard plan; key computation fans out over `pool`.
[[nodiscard]] ShardPlan make_shard_plan(std::span<const TruthTable> funcs, std::size_t num_shards,
                                        WorkerPool& pool);

}  // namespace facet
