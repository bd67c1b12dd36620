#include "facet/npn/fp_classifier.hpp"

namespace facet {

MsvGrouper::Key MsvGrouper::key_of(std::vector<std::uint32_t> msv) const
{
  const std::uint64_t lo = hash_u32_span(msv, 0xa0761d6478bd642fULL);
  if (kind_ == MsvKeyKind::kFull) {
    return Key{std::move(msv), lo, 0};
  }
  return Key{{}, lo, hash_u32_span(msv, 0x589965cc75374cc3ULL)};
}

std::uint32_t MsvGrouper::class_of(Key key)
{
  return classes_.emplace(std::move(key), static_cast<std::uint32_t>(classes_.size())).first->second;
}

namespace {

ClassificationResult classify_by_msv(std::span<const TruthTable> funcs, const SignatureConfig& config,
                                     MsvKeyKind kind)
{
  ClassificationResult result;
  result.class_of.reserve(funcs.size());
  MsvGrouper grouper{kind};
  for (const auto& f : funcs) {
    result.class_of.push_back(grouper.class_of(grouper.key_of(build_msv(f, config))));
  }
  result.num_classes = grouper.num_classes();
  return result;
}

}  // namespace

ClassificationResult classify_fp(std::span<const TruthTable> funcs, const SignatureConfig& config)
{
  return classify_by_msv(funcs, config, MsvKeyKind::kFull);
}

ClassificationResult classify_fp_hashed(std::span<const TruthTable> funcs, const SignatureConfig& config)
{
  return classify_by_msv(funcs, config, MsvKeyKind::kHash128);
}

}  // namespace facet
