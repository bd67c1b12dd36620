#include "facet/sig/walsh.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
#include <cstring>

namespace facet {

namespace {

/// kByteSpectrum[b] is the 8-point Walsh transform of the bits of byte b:
/// the first three butterfly levels of every aligned 8-point block.
constexpr auto kByteSpectrum = [] {
  std::array<std::array<std::int32_t, 8>, 256> table{};
  for (std::size_t b = 0; b < 256; ++b) {
    for (std::size_t s = 0; s < 8; ++s) {
      for (std::size_t x = 0; x < 8; ++x) {
        if ((b >> x) & 1U) {
          table[b][s] += std::popcount(s & x) % 2 == 0 ? 1 : -1;
        }
      }
    }
  }
  return table;
}();

/// In-place fast Walsh-Hadamard transform: entry S becomes
/// sum_X values[X] * (-1)^{popcount(S & X)}. Runs the butterfly levels of
/// span first_half, 2 * first_half, ... < size; the levels below
/// `first_half` are taken as already applied.
void fwht_in_place(std::span<std::int32_t> values, std::size_t first_half) noexcept
{
  const std::size_t size = values.size();
  std::int32_t* v = values.data();
  std::size_t half = first_half;
  // Two levels per pass (radix 4) halve the sweeps over the array; a
  // leftover odd level runs as plain radix-2 butterflies.
  for (; 4 * half <= size; half *= 4) {
    for (std::size_t block = 0; block < size; block += 4 * half) {
      for (std::size_t k = block; k < block + half; ++k) {
        const std::int32_t a = v[k];
        const std::int32_t b = v[k + half];
        const std::int32_t c = v[k + 2 * half];
        const std::int32_t d = v[k + 3 * half];
        v[k] = (a + b) + (c + d);
        v[k + half] = (a - b) + (c - d);
        v[k + 2 * half] = (a + b) - (c + d);
        v[k + 3 * half] = (a - b) - (c - d);
      }
    }
  }
  if (2 * half <= size) {
    for (std::size_t k = 0; k < half; ++k) {
      const std::int32_t a = v[k];
      const std::int32_t b = v[k + half];
      v[k] = a + b;
      v[k + half] = a - b;
    }
  }
}

}  // namespace

void indicator_spectrum_into(const TruthTable& points, std::span<std::int32_t> out) noexcept
{
  const std::size_t size = out.size();
  if (size < 8) {
    // n < 3: the table row is the 8-point transform of a zero-padded block,
    // whose first 2^n entries are exactly the 2^n-point transform.
    std::copy_n(kByteSpectrum[points.word(0) & 0xffU].begin(), size, out.begin());
    return;
  }
  for (std::size_t block = 0; block < size; block += 8) {
    const auto byte = static_cast<std::size_t>((points.word(block >> 6) >> (block & 63)) & 0xffU);
    std::memcpy(out.data() + block, kByteSpectrum[byte].data(), sizeof(kByteSpectrum[byte]));
  }
  fwht_in_place(out, 8);
}

std::vector<std::int32_t> walsh_spectrum(const TruthTable& tt)
{
  const std::uint64_t size = tt.num_bits();
  std::vector<std::int32_t> spectrum(size);
  indicator_spectrum_into(tt, spectrum);
  for (auto& w : spectrum) {
    w *= -2;
  }
  spectrum[0] += static_cast<std::int32_t>(size);
  return spectrum;
}

std::int32_t walsh_coefficient(const TruthTable& tt, std::uint32_t mask)
{
  std::int32_t sum = 0;
  for (std::uint64_t x = 0; x < tt.num_bits(); ++x) {
    const std::int32_t value = tt.get_bit(x) ? -1 : 1;
    sum += (std::popcount(mask & static_cast<std::uint32_t>(x)) & 1) ? -value : value;
  }
  return sum;
}

std::vector<std::uint32_t> owv(const TruthTable& tt)
{
  const int n = tt.num_vars();
  const auto spectrum = walsh_spectrum(tt);

  // Bucket |W(S)| by popcount(S), sort each layer, concatenate in weight
  // order. Layer boundaries are determined by n alone, so the flat vector
  // compares unambiguously.
  std::vector<std::vector<std::uint32_t>> layers(static_cast<std::size_t>(n) + 1);
  for (std::uint64_t mask = 0; mask < tt.num_bits(); ++mask) {
    layers[static_cast<std::size_t>(std::popcount(mask))].push_back(
        static_cast<std::uint32_t>(std::abs(spectrum[mask])));
  }
  std::vector<std::uint32_t> result;
  result.reserve(tt.num_bits());
  for (auto& layer : layers) {
    std::sort(layer.begin(), layer.end());
    result.insert(result.end(), layer.begin(), layer.end());
  }
  return result;
}

std::vector<std::uint64_t> owv_layer_sums(const TruthTable& tt)
{
  const int n = tt.num_vars();
  const auto spectrum = walsh_spectrum(tt);
  std::vector<std::uint64_t> sums(static_cast<std::size_t>(n) + 1, 0);
  for (std::uint64_t mask = 0; mask < tt.num_bits(); ++mask) {
    sums[static_cast<std::size_t>(std::popcount(mask))] +=
        static_cast<std::uint64_t>(std::abs(spectrum[mask]));
  }
  return sums;
}

}  // namespace facet
