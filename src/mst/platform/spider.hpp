#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "mst/platform/chain.hpp"
#include "mst/platform/fork.hpp"

/// \file spider.hpp
/// Spider platform of §6–7: a tree whose only node of arity > 2 is the master.

namespace mst {

/// Destination on a spider: leg plus processor position within the leg.
struct SpiderDest {
  std::size_t leg = 0;
  std::size_t proc = 0;

  friend bool operator==(const SpiderDest&, const SpiderDest&) = default;
};

/// A spider graph: the master (root) feeds several independent chains
/// ("legs").  The master's out-port is shared across legs — it sends one task
/// at a time, so a task bound for leg `l` occupies the master for the leg's
/// first-link latency before the next emission (to any leg) may begin.
class Spider {
 public:
  Spider() = default;

  /// Throws if there is no leg (each leg validates itself).
  explicit Spider(std::vector<Chain> legs);
  Spider(std::initializer_list<Chain> legs);

  /// A fork is the special spider whose legs all have length 1.
  static Spider from_fork(const Fork& fork);

  /// Rebuild as `from_fork(fork)` in place: legs already present keep their
  /// buffers, so a warm spider takes a fork of as many slaves without
  /// allocating.
  void assign_fork(const Fork& fork);

  [[nodiscard]] std::size_t num_legs() const { return legs_.size(); }
  [[nodiscard]] const Chain& leg(std::size_t l) const;
  [[nodiscard]] const std::vector<Chain>& legs() const { return legs_; }

  /// Total number of slave processors over all legs.
  [[nodiscard]] std::size_t num_processors() const;

  [[nodiscard]] std::string describe() const;

  friend bool operator==(const Spider&, const Spider&) = default;

 private:
  std::vector<Chain> legs_;
};

/// The legs of a chain (the chain itself: a chain is the one-leg spider,
/// and §7 runs the chain algorithm on every leg) or of a spider.  Code that
/// serves both shapes walks this view once.
inline std::span<const Chain> legs_of(const Chain& chain) { return {&chain, 1}; }
inline std::span<const Chain> legs_of(const Spider& spider) { return spider.legs(); }

}  // namespace mst
