#include "facet/util/hash.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>
#include <span>
#include <vector>

#include "facet/data/dataset.hpp"
#include "facet/npn/fp_classifier.hpp"
#include "facet/sig/msv.hpp"

namespace facet {
namespace {

constexpr std::array<std::uint32_t, 11> kConstexprValues{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
static_assert(hash_u32_span(kConstexprValues) != hash_u32_span(kConstexprValues, 1),
              "hash_u32_span must stay usable in constant expressions");

/// Spans of length 0..40 cover: no full round, one to five rounds of the four
/// lanes, both halves of every lane word, and every tail shape (0..7 values).
TEST(Hash, EverySingleBitFlipChangesTheHash)
{
  std::mt19937_64 rng{0x4a54ULL};
  for (std::size_t size = 0; size <= 40; ++size) {
    for (const bool zeros : {true, false}) {
      std::vector<std::uint32_t> values(size);
      if (!zeros) {
        for (auto& v : values) {
          v = static_cast<std::uint32_t>(rng());
        }
      }
      const std::uint64_t base = hash_u32_span(values);
      for (std::size_t i = 0; i < size; ++i) {
        for (int bit = 0; bit < 32; ++bit) {
          values[i] ^= std::uint32_t{1} << bit;
          EXPECT_NE(hash_u32_span(values), base) << "size=" << size << " index=" << i << " bit=" << bit;
          values[i] ^= std::uint32_t{1} << bit;
        }
      }
    }
  }
}

TEST(Hash, LengthChangesTheHash)
{
  // Trailing zeros are not free: the length is folded in.
  const std::vector<std::uint32_t> values(41, 0);
  std::vector<std::uint64_t> hashes;
  for (std::size_t size = 0; size <= values.size(); ++size) {
    hashes.push_back(hash_u32_span(std::span{values}.first(size)));
  }
  std::sort(hashes.begin(), hashes.end());
  EXPECT_EQ(std::adjacent_find(hashes.begin(), hashes.end()), hashes.end());
}

TEST(Hash, DifferentSeedsGiveDifferentHashes)
{
  std::mt19937_64 rng{0x5eedULL};
  for (const std::size_t size : {0u, 1u, 7u, 8u, 9u, 59u, 299u}) {
    std::vector<std::uint32_t> values(size);
    for (auto& v : values) {
      v = static_cast<std::uint32_t>(rng() % 4096);
    }
    std::vector<std::uint64_t> hashes;
    for (const std::uint64_t seed : {0ULL, 1ULL, 2ULL, 0xa0761d6478bd642fULL, 0x589965cc75374cc3ULL}) {
      hashes.push_back(hash_u32_span(values, seed));
    }
    std::sort(hashes.begin(), hashes.end());
    EXPECT_EQ(std::adjacent_find(hashes.begin(), hashes.end()), hashes.end()) << "size=" << size;
  }
}

TEST(Hash, DistinctCircuitMsvsGetDistinctKeys)
{
  CircuitDatasetOptions options;
  options.max_functions = 0;
  const std::vector<TruthTable> funcs = make_circuit_dataset(8, options);
  std::vector<std::vector<std::uint32_t>> msvs;
  msvs.reserve(funcs.size());
  for (const TruthTable& f : funcs) {
    msvs.push_back(build_msv(f, SignatureConfig::all()));
  }
  std::sort(msvs.begin(), msvs.end());
  msvs.erase(std::unique(msvs.begin(), msvs.end()), msvs.end());
  ASSERT_GT(msvs.size(), 1000u);

  const MsvGrouper grouper{MsvKeyKind::kFull};
  std::vector<std::uint64_t> keys;
  keys.reserve(msvs.size());
  for (const auto& msv : msvs) {
    keys.push_back(grouper.key_of(msv).lo);
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
}

TEST(Hash, HashedClassifierMatchesFullKeyClassifierOnCircuitSets)
{
  CircuitDatasetOptions options;
  options.max_functions = 0;
  for (int n = 5; n <= 8; ++n) {
    const std::vector<TruthTable> funcs = make_circuit_dataset(n, options);
    const ClassificationResult keyed = classify_fp(funcs);
    const ClassificationResult hashed = classify_fp_hashed(funcs);
    EXPECT_EQ(hashed.num_classes, keyed.num_classes) << "n=" << n;
    EXPECT_EQ(hashed.class_of, keyed.class_of) << "n=" << n;
  }
}

}  // namespace
}  // namespace facet
