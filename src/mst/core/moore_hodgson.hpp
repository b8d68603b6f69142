#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mst/common/time.hpp"

/// \file moore_hodgson.hpp
/// One-machine deadline selection with release dates — step (3) of the
/// release-dated spider algorithm, and so of the fork, a spider with unit
/// legs.
///
/// The virtual-node selection problem of §6/§7 is `1 || ΣU_j`: jobs (master
/// emissions) with processing time `comm` and a hard deadline, one machine
/// (the master's out-port), maximize the number of on-time jobs.  For
/// identical tasks the spider pipeline solves it with the ascending-`c`
/// greedy of Beaumont et al. [2], which builds only the nodes it keeps
/// (`spider_scheduler.hpp`, exchange argument there).  With release dates
/// the machine is free for the j-th selected job only from the j-th
/// release on, and the positional-release DP below selects instead.
/// Moore–Hodgson (Moore 1968), which the paper cites for step (3), is no
/// longer in the library: it survives as the test oracle of the greedy
/// (`tests/support/moore_hodgson_oracle.hpp`).

namespace mst {

/// One job of a horizon-shiftable instance — the *build* step of a makespan
/// search.  The spider node instance only shifts with its horizon: a node
/// built at horizon `H` with deadline `deadline` has deadline
/// `deadline - (H - T)` at any `T <= H`, and exists there iff that is still
/// at least `proc_time`.  A uniform shift keeps EDD order, so an
/// instance ordered once (`operator<`: deadline, then processing time, then
/// id — the deterministic EDD order) serves every probe of the search and
/// the final selection.  `id` is the node's enumeration
/// index at the build horizon; the nodes that still exist at `T` are
/// enumerated in the same order there, so their ids compare exactly as
/// their enumeration indices at `T` would.
struct EddJob {
  Time deadline = 0;   ///< latest completion at the build horizon
  Time proc_time = 0;  ///< time on the shared machine
  std::size_t id = 0;  ///< enumeration index at the build horizon

  friend auto operator<=>(const EddJob&, const EddJob&) = default;
};

/// One run of the build step's p-way merge: the run's next job in EDD
/// order, the run, and the position after that job in it.
struct EddRun {
  EddJob job;
  std::size_t run = 0;
  std::size_t next = 0;
};

/// Positional-release selection — the release-date generalization behind
/// the spider workload algorithms.  Tasks are identical apart from
/// their release dates, so the dates bind *positionally*: the j-th selected
/// emission in time order (0-based) cannot start before `releases[j]`
/// (`releases` sorted ascending).  At most `min(max_count, releases.size())`
/// jobs can be selected.  Solved exactly by the selection DP over the EDD
/// order (`dp[j]` = minimal completion time of a feasible j-job selection
/// of the processed prefix); Moore–Hodgson's eviction rule does not extend
/// to position-dependent machine availability, the DP does.  A job relaxes
/// at most `min(best + 1, K)` positions (`best` the count so far, `K` the
/// limit), O(N·K) per pass over `N` jobs at worst, minus the row's frozen
/// prefix, which no later job can lower (`moore_hodgson.cpp`).  Both entry
/// points add the positions they relax to `cells`, which the registry
/// reports as the `core.spider.dp_cells` counter.
/// The *probe* step of a release-dated search: `edd` is EDD-ordered and
/// built at `H`, probed at `T = H - shift` — every deadline lowered by
/// `shift`, jobs whose shifted deadline falls below their processing time
/// skipped (release dates stay absolute).
/// `dp_scratch` is reused capacity (cleared).
std::size_t moore_hodgson_released_count(const std::vector<EddJob>& edd, Time shift,
                                         const std::vector<Time>& releases,
                                         std::size_t max_count, std::vector<Time>& dp_scratch,
                                         std::size_t& cells);

/// Positional-release selection over the same shifted instance (`edd`
/// EDD-ordered, built at `H`, selected at `T = H - shift`); it reads and
/// keeps the built instance, so a release-dated makespan search selects at
/// its optimum without rebuilding it.  Leaves the jobs of one maximum
/// selection, as built, in `picked`, in the EDD order they must be
/// sequenced in (position j gets release `releases[j]`).  Runs the count's
/// DP row in `dp_scratch` and keeps, per job, one bit per count in `taken`
/// — whether the job lowered that DP entry — to backtrack (ties toward
/// leaving a job out).  Deterministic; every buffer is reused capacity.
/// Adds the positions it relaxes to `cells`.
void moore_hodgson_released(const std::vector<EddJob>& edd, Time shift,
                            const std::vector<Time>& releases, std::size_t max_count,
                            std::vector<Time>& dp_scratch, std::vector<std::uint64_t>& taken,
                            std::vector<EddJob>& picked, std::size_t& cells);

}  // namespace mst
