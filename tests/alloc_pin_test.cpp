/// Allocation pin for the MSV kernel. This binary replaces the global
/// operator new with a counting one, so it must stay out of sanitizer
/// builds: AddressSanitizer supplies its own operator new.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <random>
#include <vector>

#include "facet/data/dataset.hpp"
#include "facet/sig/msv.hpp"
#include "facet/tt/tt_generate.hpp"
#include "facet/tt/tt_io.hpp"

namespace {

std::atomic<bool> counting{false};
std::atomic<std::size_t> allocations{0};

}  // namespace

// The array and nothrow forms of the default library forward to this one.
void* operator new(std::size_t size)
{
  if (counting.load(std::memory_order_relaxed)) {
    allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace facet {
namespace {

/// Heap allocations made by one call of build_msv(f, config).
std::size_t build_msv_allocations(const TruthTable& f, const SignatureConfig& config)
{
  std::vector<std::uint32_t> msv;
  allocations.store(0, std::memory_order_relaxed);
  counting.store(true, std::memory_order_relaxed);
  msv = build_msv(f, config);
  counting.store(false, std::memory_order_relaxed);
  return allocations.load(std::memory_order_relaxed);
}

TEST(AllocationPin, CounterSeesHeapAllocations)
{
  allocations.store(0, std::memory_order_relaxed);
  counting.store(true, std::memory_order_relaxed);
  const auto* volatile p = new std::vector<int>(1000);
  counting.store(false, std::memory_order_relaxed);
  delete p;
  EXPECT_EQ(allocations.load(std::memory_order_relaxed), 2u);
}

TEST(AllocationPin, BuildMsvAllocatesResultComplementAndProfileOnly)
{
  // At n = 8 a TruthTable's words are on the heap, so the complement and
  // the profile planes each cost one allocation, and the result one more.
  const SignatureConfig config = SignatureConfig::all();
  std::mt19937_64 rng{0xa110cULL};
  const int n = 8;
  // The first call grows the per-thread OSDV scratch (Walsh buffer, level
  // mask) to width 8; later calls reuse it.
  (void)build_msv(tt_random_with_ones(n, 100, rng), config);
  for (const std::uint64_t ones : {1u, 37u, 100u, 127u, 129u, 200u}) {
    const TruthTable f = tt_random_with_ones(n, ones, rng);
    ASSERT_FALSE(f.is_balanced());
    const std::vector<std::uint32_t> expected = build_msv(f, config);
    EXPECT_LE(build_msv_allocations(f, config), 3u) << "ones=" << ones;
    EXPECT_EQ(build_msv(f, config), expected);
  }
}

TEST(AllocationPin, CircuitSetUnbalancedFunctionsAllocateAtMostThreeTimes)
{
  CircuitDatasetOptions options;
  options.max_functions = 500;
  const std::vector<TruthTable> funcs = make_circuit_dataset(8, options);
  const SignatureConfig config = SignatureConfig::all();
  (void)build_msv(funcs.front(), config);
  std::size_t checked = 0;
  for (const TruthTable& f : funcs) {
    if (f.num_vars() != 8 || f.is_balanced()) {
      continue;
    }
    ASSERT_LE(build_msv_allocations(f, config), 3u) << to_hex(f);
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace facet
