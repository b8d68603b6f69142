#include "mst/platform/generator.hpp"

#include <algorithm>

#include "mst/common/assert.hpp"

namespace mst {

std::string to_string(PlatformClass cls) {
  switch (cls) {
    case PlatformClass::kUniform: return "uniform";
    case PlatformClass::kCommBound: return "comm-bound";
    case PlatformClass::kComputeBound: return "compute-bound";
    case PlatformClass::kCorrelated: return "correlated";
    case PlatformClass::kAntiCorrelated: return "anti-correlated";
  }
  return "?";
}

const std::vector<PlatformClass>& all_platform_classes() {
  static const std::vector<PlatformClass> kAll = {
      PlatformClass::kUniform, PlatformClass::kCommBound, PlatformClass::kComputeBound,
      PlatformClass::kCorrelated, PlatformClass::kAntiCorrelated};
  return kAll;
}

namespace {

/// One random processor of the given class.
Processor random_processor(Rng& rng, const GeneratorParams& params) {
  MST_REQUIRE(params.lo >= 1 && params.hi >= params.lo, "need 1 <= lo <= hi");
  const Time lo = params.lo;
  const Time hi = params.hi;
  const Time mid = std::max<Time>(lo, hi / 2);
  switch (params.cls) {
    case PlatformClass::kUniform:
      return {rng.uniform(lo, hi), rng.uniform(lo, hi)};
    case PlatformClass::kCommBound:
      return {rng.uniform(mid, hi), rng.uniform(lo, mid)};
    case PlatformClass::kComputeBound:
      return {rng.uniform(lo, std::max<Time>(lo, hi / 4)), rng.uniform(mid, hi)};
    case PlatformClass::kCorrelated: {
      const Time base = rng.uniform(lo, hi);
      const Time jitter = std::max<Time>(1, (hi - lo) / 8);
      const Time c = std::clamp<Time>(base + rng.uniform(-jitter, jitter), lo, hi);
      return {c, base};
    }
    case PlatformClass::kAntiCorrelated: {
      const Time base = rng.uniform(lo, hi);
      const Time jitter = std::max<Time>(1, (hi - lo) / 8);
      const Time c = std::clamp<Time>(lo + hi - base + rng.uniform(-jitter, jitter), lo, hi);
      return {c, base};
    }
  }
  // Called directly (not through MST_ASSERT) so the compiler sees that no
  // path falls off the end of this non-void function.
  detail::throw_invariant("false", __FILE__, __LINE__);
}

}  // namespace

Chain random_chain(Rng& rng, std::size_t p, const GeneratorParams& params) {
  MST_REQUIRE(p >= 1, "chain needs at least one processor");
  std::vector<Processor> procs;
  procs.reserve(p);
  for (std::size_t i = 0; i < p; ++i) procs.push_back(random_processor(rng, params));
  return Chain(std::move(procs));
}

Fork random_fork(Rng& rng, std::size_t p, const GeneratorParams& params) {
  MST_REQUIRE(p >= 1, "fork needs at least one slave");
  std::vector<Processor> slaves;
  slaves.reserve(p);
  for (std::size_t i = 0; i < p; ++i) slaves.push_back(random_processor(rng, params));
  return Fork(std::move(slaves));
}

Spider random_spider(Rng& rng, std::size_t legs, std::size_t max_leg_len,
                     const GeneratorParams& params) {
  return random_spider(rng, legs, 1, max_leg_len, params);
}

Spider random_spider(Rng& rng, std::size_t legs, std::size_t min_leg_len,
                     std::size_t max_leg_len, const GeneratorParams& params) {
  MST_REQUIRE(legs >= 1, "spider needs at least one leg");
  MST_REQUIRE(min_leg_len >= 1 && min_leg_len <= max_leg_len,
              "need 1 <= min_leg_len <= max_leg_len");
  std::vector<Chain> chains;
  chains.reserve(legs);
  for (std::size_t l = 0; l < legs; ++l) {
    const auto len = static_cast<std::size_t>(
        rng.uniform(static_cast<Time>(min_leg_len), static_cast<Time>(max_leg_len)));
    chains.push_back(random_chain(rng, len, params));
  }
  return Spider(std::move(chains));
}

Tree random_tree(Rng& rng, std::size_t slaves, const GeneratorParams& params) {
  return random_tree(rng, slaves, params, 0.0);
}

Tree random_tree(Rng& rng, std::size_t slaves, const GeneratorParams& params,
                 double depth_bias) {
  MST_REQUIRE(slaves >= 1, "tree needs at least one slave");
  MST_REQUIRE(depth_bias >= 0.0 && depth_bias <= 1.0, "depth_bias must be in [0, 1]");
  Tree tree;
  NodeId last = 0;
  for (std::size_t i = 0; i < slaves; ++i) {
    // No `chance` draw at bias 0: the uniform-parent stream must stay
    // aligned with the historical `random_tree` instances.
    const bool extend = depth_bias > 0.0 && rng.chance(depth_bias);
    const NodeId parent =
        extend ? last
               : static_cast<NodeId>(rng.uniform(0, static_cast<Time>(tree.size() - 1)));
    last = tree.add_node(parent, random_processor(rng, params));
  }
  return tree;
}

}  // namespace mst
