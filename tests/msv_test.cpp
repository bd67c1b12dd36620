#include "facet/sig/msv.hpp"

#include <gtest/gtest.h>

#include <array>
#include <random>
#include <span>

#include "facet/data/dataset.hpp"
#include "facet/npn/transform.hpp"
#include "facet/tt/tt_generate.hpp"
#include "facet/util/hash.hpp"

namespace facet {
namespace {

std::vector<SignatureConfig> all_configs()
{
  return {SignatureConfig::oiv_only(),     SignatureConfig::ocv1_only(),
          SignatureConfig::osv_only(),     SignatureConfig::oiv_osv(),
          SignatureConfig::ocv1_osv(),     SignatureConfig::ocv1_ocv2_osv(),
          SignatureConfig::oiv_osv_osdv(), SignatureConfig::all()};
}

/// The central soundness property behind Algorithm 1 (Theorems 1-4): the MSV
/// is invariant under every NPN transformation, for every configuration.
class MsvInvariance : public ::testing::TestWithParam<int> {};

TEST_P(MsvInvariance, RandomFunctionsUnderRandomTransforms)
{
  const int n = GetParam();
  std::mt19937_64 rng{0x1234ABCDu + static_cast<unsigned>(n)};
  const auto configs = all_configs();
  for (int trial = 0; trial < 20; ++trial) {
    const TruthTable f = tt_random(n, rng);
    const NpnTransform t = NpnTransform::random(n, rng);
    const TruthTable g = apply_transform(f, t);
    for (const auto& config : configs) {
      EXPECT_EQ(build_msv(f, config), build_msv(g, config))
          << "config " << config.name() << " n=" << n << " transform " << t.to_string();
    }
  }
}

TEST_P(MsvInvariance, BalancedFunctionsUnderRandomTransforms)
{
  // Balanced functions exercise the Theorem 3/4 polarity pairing, which is
  // where a naive per-vector swap rule would break.
  const int n = GetParam();
  std::mt19937_64 rng{0xBA1A4CEDu + static_cast<unsigned>(n)};
  const auto configs = all_configs();
  for (int trial = 0; trial < 20; ++trial) {
    const TruthTable f = tt_random_with_ones(n, TruthTable{n}.num_bits() / 2, rng);
    ASSERT_TRUE(f.is_balanced());
    const NpnTransform t = NpnTransform::random(n, rng);
    const TruthTable g = apply_transform(f, t);
    for (const auto& config : configs) {
      EXPECT_EQ(build_msv(f, config), build_msv(g, config))
          << "config " << config.name() << " n=" << n << " transform " << t.to_string();
    }
  }
}

TEST_P(MsvInvariance, OutputNegationAlone)
{
  const int n = GetParam();
  std::mt19937_64 rng{0xFEED5EEDu + static_cast<unsigned>(n)};
  const auto configs = all_configs();
  for (int trial = 0; trial < 10; ++trial) {
    const TruthTable f = tt_random(n, rng);
    for (const auto& config : configs) {
      EXPECT_EQ(build_msv(f, config), build_msv(~f, config)) << "config " << config.name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, MsvInvariance, ::testing::Range(1, 9));

TEST(Msv, StructuredFunctionsUnderTransforms)
{
  // Highly symmetric functions stress the balanced pairing and degenerate
  // phase cases.
  std::mt19937_64 rng{77};
  const auto configs = all_configs();
  for (const TruthTable& f :
       {tt_majority(5), tt_parity(6), tt_inner_product(6), tt_threshold(6, 2), tt_conjunction(5)}) {
    for (int trial = 0; trial < 10; ++trial) {
      const NpnTransform t = NpnTransform::random(f.num_vars(), rng);
      const TruthTable g = apply_transform(f, t);
      for (const auto& config : configs) {
        EXPECT_EQ(build_msv(f, config), build_msv(g, config)) << "config " << config.name();
      }
    }
  }
}

TEST(Msv, DistinguishesObviouslyDifferentFunctions)
{
  const SignatureConfig config = SignatureConfig::all();
  EXPECT_NE(build_msv(tt_majority(3), config), build_msv(tt_parity(3), config));
  EXPECT_NE(build_msv(tt_projection(3, 0), config), build_msv(tt_majority(3), config));
  EXPECT_NE(build_msv(tt_conjunction(4), config), build_msv(tt_parity(4), config));
}

TEST(Msv, HashAgreesWithVectorEquality)
{
  std::mt19937_64 rng{11};
  const SignatureConfig config = SignatureConfig::all();
  const TruthTable f = tt_random(6, rng);
  const NpnTransform t = NpnTransform::random(6, rng);
  EXPECT_EQ(msv_hash(f, config), msv_hash(apply_transform(f, t), config));
}

TEST(Msv, ConfigNames)
{
  EXPECT_EQ(SignatureConfig::oiv_only().name(), "OIV");
  EXPECT_EQ(SignatureConfig::ocv1_ocv2_osv().name(), "OCV1+OCV2+OSV");
  EXPECT_EQ(SignatureConfig::all().name(), "OCV1+OCV2+OIV+OSV+OSDV");
  EXPECT_EQ(SignatureConfig{}.name(), "none");
}

TEST(Msv, ComponentsChangeVectorLength)
{
  const TruthTable f = tt_majority(5);
  EXPECT_LT(build_msv(f, SignatureConfig::oiv_only()).size(),
            build_msv(f, SignatureConfig::oiv_osv()).size());
  EXPECT_LT(build_msv(f, SignatureConfig::oiv_osv()).size(), build_msv(f, SignatureConfig::all()).size());
}

/// Golden MSV digests: the kernel may be rewritten for speed, but not a
/// single output word may change. The expected values were computed with the
/// straightforward per-family kernels (one cofactor pass per family, sorted
/// with std::sort, OIV from its own difference masks).
struct GoldenConfig {
  const char* name;
  SignatureConfig config;
};

std::array<GoldenConfig, 5> golden_configs()
{
  return {{{"all", SignatureConfig::all()},
           {"all_extended", SignatureConfig::all_extended()},
           {"ocv1_only", SignatureConfig::ocv1_only()},
           {"ocv2", SignatureConfig{.use_ocv2 = true}},
           {"oiv_osv", SignatureConfig::oiv_osv()}}};
}

/// Serial fold of one MSV: a splitmix64 chain over every value, seeded by
/// the length. The digests pin their own fold rather than the library's
/// hash_u32_span, so the expected values stay tied to the MSV words alone.
std::uint64_t serial_fold(std::span<const std::uint32_t> values)
{
  std::uint64_t h = 0xa0761d6478bd642fULL ^ (values.size() * 0xe7037ed1a0b428dbULL);
  for (const auto v : values) {
    h = hash_combine64(h, v);
  }
  return h;
}

/// Order-sensitive digest of the MSVs of `funcs` under `config`.
std::uint64_t msv_digest(const std::vector<TruthTable>& funcs, const SignatureConfig& config)
{
  std::uint64_t digest = 0;
  for (const TruthTable& f : funcs) {
    digest = hash_combine64(digest, serial_fold(build_msv(f, config)));
  }
  return digest;
}

/// Seeded random functions at n = 0..11 over a sweep of densities: n < 2
/// (degenerate pair and triple families), cross-word variables (n >= 7),
/// constants, single minterms and balanced functions (both polarities).
std::vector<TruthTable> golden_random_set()
{
  std::mt19937_64 rng{0x601DE4Du};
  std::vector<TruthTable> funcs;
  for (int n = 0; n <= 11; ++n) {
    const std::uint64_t bits = std::uint64_t{1} << n;
    for (const std::uint64_t eighths : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u}) {
      for (int trial = 0; trial < 4; ++trial) {
        funcs.push_back(tt_random_with_ones(n, bits * eighths / 8, rng));
      }
    }
    for (const std::uint64_t ones : {std::uint64_t{1}, bits - 1}) {
      funcs.push_back(tt_random_with_ones(n, ones, rng));
    }
    for (int trial = 0; trial < 8; ++trial) {
      funcs.push_back(tt_random(n, rng));
    }
  }
  return funcs;
}

TEST(MsvGolden, CircuitSetDigests)
{
  CircuitDatasetOptions options;
  options.max_functions = 0;
  const std::vector<TruthTable> funcs = make_circuit_dataset(8, options);
  ASSERT_EQ(funcs.size(), 13895u);
  const std::array<std::uint64_t, 5> expected = {5980262795552815769u, 14971434598196497861u, 13652600293106319552u,
                                                 1119055593642696791u, 1611713653115526373u};
  const auto configs = golden_configs();
  for (std::size_t c = 0; c < configs.size(); ++c) {
    EXPECT_EQ(msv_digest(funcs, configs[c].config), expected[c]) << configs[c].name;
  }
}

TEST(MsvGolden, RandomSetDigests)
{
  const std::vector<TruthTable> funcs = golden_random_set();
  ASSERT_EQ(funcs.size(), 12u * 42u);
  const std::array<std::uint64_t, 5> expected = {16592706365743290055u, 2313934576878886558u, 8569428131546374669u,
                                                 12902172645401040727u, 17599301757997194097u};
  const auto configs = golden_configs();
  for (std::size_t c = 0; c < configs.size(); ++c) {
    EXPECT_EQ(msv_digest(funcs, configs[c].config), expected[c]) << configs[c].name;
  }
}

}  // namespace
}  // namespace facet
