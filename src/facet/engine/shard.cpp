#include "facet/engine/shard.hpp"

#include <algorithm>

#include "facet/sig/msv.hpp"
#include "facet/util/hash.hpp"

namespace facet {

std::uint64_t shard_key(const TruthTable& tt)
{
  return hash_combine64(static_cast<std::uint64_t>(tt.num_vars()),
                        msv_hash(tt, SignatureConfig{.use_ocv1 = true, .use_oiv = true}));
}

ShardPlan make_shard_plan(std::span<const TruthTable> funcs, std::size_t num_shards, WorkerPool& pool)
{
  ShardPlan plan;
  plan.num_shards = std::max<std::size_t>(1, num_shards);
  plan.shard_of.resize(funcs.size());
  plan.members.resize(plan.num_shards);
  if (funcs.empty()) {
    return plan;
  }

  // Key computation is the per-function hot loop; chunk it over the pool.
  pool.run_chunked(funcs.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      plan.shard_of[i] = static_cast<std::uint32_t>(shard_key(funcs[i]) % plan.num_shards);
    }
  });

  // Bucketing stays sequential so member lists are ascending (the merge
  // step depends on input order within each shard).
  std::vector<std::size_t> sizes(plan.num_shards, 0);
  for (const auto s : plan.shard_of) {
    ++sizes[s];
  }
  for (std::size_t s = 0; s < plan.num_shards; ++s) {
    plan.members[s].reserve(sizes[s]);
  }
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    plan.members[plan.shard_of[i]].push_back(static_cast<std::uint32_t>(i));
  }
  return plan;
}

}  // namespace facet
