#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "mst/common/rng.hpp"
#include "mst/common/time.hpp"
#include "mst/platform/chain.hpp"
#include "mst/platform/fork.hpp"
#include "mst/platform/spider.hpp"
#include "mst/platform/tree.hpp"

/// \file generator.hpp
/// Seeded random platform generators.
///
/// The paper evaluates analytically on hand-built examples; to run the
/// comparison and scaling experiments a release needs reproducible synthetic
/// platforms.  Every generator takes an explicit `Rng` so a (class, seed)
/// pair fully determines the instance.

namespace mst {

/// Heterogeneity classes modelled after the paper's motivating platforms
/// (SETI@home-style volunteer pools behind slow links, clusters behind fast
/// interconnects, and balanced grids).
enum class PlatformClass {
  kUniform,           ///< c, w both uniform in [lo, hi]
  kCommBound,         ///< slow links: c in [hi/2, hi], w in [lo, hi/2]
  kComputeBound,      ///< fast links: c in [lo, hi/4+lo], w in [hi/2, hi]
  kCorrelated,        ///< fast links go with fast processors (c ≈ w)
  kAntiCorrelated,    ///< fast links go with slow processors and vice versa
};

/// Returns the short name used in experiment tables ("uniform", "comm", ...).
std::string to_string(PlatformClass cls);

/// All classes, for sweep loops.
const std::vector<PlatformClass>& all_platform_classes();

/// Parameters shared by the generators.  Times are drawn in `[lo, hi]`
/// (inclusive) and then shaped per class; `lo >= 1` keeps processing times
/// positive.
struct GeneratorParams {
  Time lo = 1;
  Time hi = 10;
  PlatformClass cls = PlatformClass::kUniform;
};

/// A chain of `p` processors, each drawn from `params`' class (so a
/// one-processor chain is one random processor).
Chain random_chain(Rng& rng, std::size_t p, const GeneratorParams& params);

/// A fork of `p` slaves.
Fork random_fork(Rng& rng, std::size_t p, const GeneratorParams& params);

/// A spider with `legs` legs whose lengths are uniform in
/// `[1, max_leg_len]`.
Spider random_spider(Rng& rng, std::size_t legs, std::size_t max_leg_len,
                     const GeneratorParams& params);

/// A spider whose leg lengths are uniform in `[min_leg_len, max_leg_len]`
/// (the scenario specs' width knob; `min == max` pins the length exactly).
Spider random_spider(Rng& rng, std::size_t legs, std::size_t min_leg_len,
                     std::size_t max_leg_len, const GeneratorParams& params);

/// A random tree with `slaves` slave nodes: each new node picks a uniformly
/// random existing node as parent (yields realistic mixed shapes: stars near
/// the root, chains in the tails).
Tree random_tree(Rng& rng, std::size_t slaves, const GeneratorParams& params);

/// Shape-controlled tree: with probability `depth_bias` a new node extends
/// the most recently added node (deepening a path), otherwise it attaches
/// to a uniformly random existing node.  `depth_bias = 0` reproduces
/// `random_tree`; `1` yields a pure chain; values between interpolate from
/// bushy/star-like to path-heavy — the scenario specs' depth knob.
Tree random_tree(Rng& rng, std::size_t slaves, const GeneratorParams& params,
                 double depth_bias);

}  // namespace mst
