#pragma once

#include <cstddef>
#include <vector>

#include "mst/platform/chain.hpp"
#include "mst/platform/spider.hpp"
#include "mst/schedule/chain_schedule.hpp"
#include "mst/schedule/spider_schedule.hpp"
#include "mst/workload/workload.hpp"

/// \file asap.hpp
/// Forward as-soon-as-possible timing for a fixed destination sequence.
///
/// Given the ordered list of destinations (the order tasks leave the
/// master), every emission, hop and execution is placed at its earliest
/// feasible time, FIFO per link and per processor.  For identical tasks,
/// per-link FIFO is without loss of generality (crossing communications can
/// always be uncrossed by relabeling — the argument behind Lemma 1), so
/// minimizing over all destination sequences with ASAP timing yields the
/// exact optimum.  This is the engine of the exhaustive baseline and of the
/// forward heuristics; the paper's algorithm, by contrast, never needs to
/// enumerate sequences.
///
/// Every entry point also has a workload-aware form: task `i` of the
/// dispatch order carries size `s_i` (scaling each hop to `s_i·c_k` and the
/// execution to `s_i·w_k`) and release date `r_i` (its first emission starts
/// no earlier than `r_i`).  The unit/zero defaults reproduce the identical
/// arithmetic exactly.

namespace mst {

/// ASAP schedule of the given chain destination sequence (`dest[i]` is the
/// 0-based destination processor of the i-th emitted task).
ChainSchedule asap_chain_schedule(const Chain& chain, const std::vector<std::size_t>& dests);

/// Workload-aware form: task `i` has `workload.size_of(i)` /
/// `workload.release_of(i)`; requires `workload.count() == dests.size()`.
ChainSchedule asap_chain_schedule(const Chain& chain, const std::vector<std::size_t>& dests,
                                  const Workload& workload);

/// Destination on a spider: leg plus processor position within the leg.
struct SpiderDest {
  std::size_t leg = 0;
  std::size_t proc = 0;

  friend bool operator==(const SpiderDest&, const SpiderDest&) = default;
};

/// ASAP schedule of the given spider destination sequence; the master's
/// one-port serializes first emissions in sequence order.
SpiderSchedule asap_spider_schedule(const Spider& spider, const std::vector<SpiderDest>& dests);
SpiderSchedule asap_spider_schedule(const Spider& spider, const std::vector<SpiderDest>& dests,
                                    const Workload& workload);

/// Incremental ASAP state for chain construction — lets heuristics append
/// one destination at a time and query the resulting completion time without
/// recomputing the prefix (O(p) per append).
class ChainAsapState {
 public:
  explicit ChainAsapState(const Chain& chain);

  /// Completion time if the next task were sent to `dest`, without
  /// committing.  `size` scales the task's communications and execution;
  /// its first emission starts no earlier than `release`.
  [[nodiscard]] Time peek_completion(std::size_t dest, Time size = 1, Time release = 0) const;

  /// Appends a task to `dest`; returns its placement.
  ChainTask commit(std::size_t dest, Time size = 1, Time release = 0);

  [[nodiscard]] const Chain& chain() const { return chain_; }

 private:
  Chain chain_;
  std::vector<Time> link_free_;
  std::vector<Time> proc_free_;
};

/// Same, for spiders: one chain state per leg plus the master's one-port.
/// A task's first emission waits for the port as well as its release date,
/// so each leg runs the chain recurrence with `max(port free, release)` as
/// the release argument.
class SpiderAsapState {
 public:
  explicit SpiderAsapState(const Spider& spider);

  [[nodiscard]] Time peek_completion(const SpiderDest& dest, Time size = 1,
                                     Time release = 0) const;
  SpiderTask commit(const SpiderDest& dest, Time size = 1, Time release = 0);

 private:
  std::vector<ChainAsapState> legs_;
  Time port_free_ = 0;  ///< the master's out-port frees up
};

}  // namespace mst
