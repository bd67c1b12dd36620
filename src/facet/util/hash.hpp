/// \file hash.hpp
/// \brief Hashing utilities shared across the library.
///
/// The classifier (Algorithm 1 of the paper) finishes with a hash of the
/// mixed signature vector; class maps also key on raw truth-table words.
/// Everything here is deterministic across runs so that class ids are
/// reproducible.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace facet {

/// 64-bit finalizer from splitmix64; good avalanche for word mixing.
[[nodiscard]] constexpr std::uint64_t hash_mix64(std::uint64_t x) noexcept
{
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Combine a new word into a running 64-bit hash state.
[[nodiscard]] constexpr std::uint64_t hash_combine64(std::uint64_t seed, std::uint64_t value) noexcept
{
  return hash_mix64(seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2)));
}

/// Hash a span of words (order-sensitive).
[[nodiscard]] constexpr std::uint64_t hash_words(std::span<const std::uint64_t> words,
                                                 std::uint64_t seed = 0x8f1bbcdcbfa53e0bULL) noexcept
{
  std::uint64_t h = seed ^ (words.size() * 0xff51afd7ed558ccdULL);
  for (const auto w : words) {
    h = hash_combine64(h, w);
  }
  return h;
}

/// Hash a span of 32-bit values (signature vectors: MSV class keys, shard
/// keys, exact-classifier buckets). Four independent lanes each absorb one
/// 64-bit word v[i] | v[i+1] << 32 per round with a xorshift-multiply step,
/// so a 299-value MSV costs 38 rounds of four parallel chains instead of 299
/// dependent mixes. The lanes, then the tail, fold through hash_mix64. Each
/// step is a bijection of the lane for a fixed word and of the word for a
/// fixed lane, so changing the values of a single lane or of the tail
/// always changes the hash. Nothing persisted depends on this hash (class
/// ids are assigned by first occurrence); store checksums use hash_words.
[[nodiscard]] constexpr std::uint64_t hash_u32_span(std::span<const std::uint32_t> values,
                                                    std::uint64_t seed = 0xa0761d6478bd642fULL) noexcept
{
  constexpr std::uint64_t kLaneMul = 0xd6e8feb86659fd93ULL;
  const auto word = [values](std::size_t i) {
    return static_cast<std::uint64_t>(values[i]) | static_cast<std::uint64_t>(values[i + 1]) << 32;
  };
  const auto step = [](std::uint64_t lane, std::uint64_t w) {
    lane ^= w;
    lane ^= lane >> 32;
    return lane * kLaneMul;
  };
  std::uint64_t lane0 = hash_mix64(seed);
  std::uint64_t lane1 = hash_mix64(seed + 1);
  std::uint64_t lane2 = hash_mix64(seed + 2);
  std::uint64_t lane3 = hash_mix64(seed + 3);
  const std::size_t size = values.size();
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    lane0 = step(lane0, word(i));
    lane1 = step(lane1, word(i + 2));
    lane2 = step(lane2, word(i + 4));
    lane3 = step(lane3, word(i + 6));
  }
  std::uint64_t h = seed ^ (size * 0xe7037ed1a0b428dbULL);
  for (const auto lane : {lane0, lane1, lane2, lane3}) {
    h = hash_mix64(h ^ lane);
  }
  for (; i + 2 <= size; i += 2) {
    h = hash_mix64(h ^ word(i));
  }
  if (i < size) {
    h = hash_mix64(h ^ values[i]);
  }
  return h;
}

/// Functor for unordered containers keyed by vectors of 32-bit signature
/// entries. Equality of the full vector (not just the hash) decides class
/// membership, so hash collisions cannot merge classes.
struct U32VectorHash {
  [[nodiscard]] std::size_t operator()(const std::vector<std::uint32_t>& v) const noexcept
  {
    return static_cast<std::size_t>(hash_u32_span(v));
  }
};

/// Functor for unordered containers keyed by raw truth-table words.
struct WordVectorHash {
  [[nodiscard]] std::size_t operator()(const std::vector<std::uint64_t>& v) const noexcept
  {
    return static_cast<std::size_t>(hash_words(v));
  }
};

}  // namespace facet
