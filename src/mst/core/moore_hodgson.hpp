#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "mst/common/time.hpp"

/// \file moore_hodgson.hpp
/// One-machine deadline selection — step (3) of the spider algorithm, and
/// so of the fork, a spider with unit legs.
///
/// The virtual-node selection problem of §6/§7 is exactly `1 || ΣU_j`:
/// jobs (master emissions) with processing time `comm` and a hard deadline,
/// one machine (the master's out-port), maximize the number of on-time jobs.
/// The Moore–Hodgson algorithm solves it optimally in `O(N log N)`.
///
/// The paper cites the ascending-`c` greedy of Beaumont et al. [2] for this
/// step.  Its proof relies on the structure of the node sequences — one
/// processing time per source, deadlines falling with the rank — which fork
/// expansion has and so does every spider leg's Fig 7 run: identical-task
/// spider and fork solves therefore select with a lazy greedy that builds
/// only the nodes it keeps (`spider_scheduler.hpp`, exchange argument
/// there).  Moore–Hodgson's optimality holds for *arbitrary* job sets; it
/// stays for `probe_instance`'s identical-task count, for
/// `moore_hodgson`/`moore_hodgson_count` below, and as the test oracle of
/// the greedy (`tests/support/moore_hodgson_oracle.hpp`).  Release-dated
/// selections use the positional-release DP.

namespace mst {

/// One emission job.
struct DeadlineJob {
  Time proc_time = 0;  ///< time on the shared machine (the emission latency)
  Time deadline = 0;   ///< latest allowed completion on the machine
  std::size_t id = 0;  ///< caller-side identity, reported back in the result
};

/// Maximum-cardinality on-time subset (Moore–Hodgson).  Returns the `id`s of
/// the selected jobs; the subset is feasible when sequenced in EDD order
/// (earliest deadline first).  Jobs with `deadline < proc_time` are never
/// selected.  Deterministic: ties are broken by (deadline, proc_time, id).
std::vector<std::size_t> moore_hodgson(std::vector<DeadlineJob> jobs);

/// A selected job as `(proc_time, id)`; the selection heap evicts the
/// largest processing time first, ties toward the larger id.
using SelectedJob = std::pair<Time, std::size_t>;

/// Count-only Moore–Hodgson for sweep hot paths: the same selection with a
/// heap of processing times only, kept in `heap_scratch`.  Returns the same
/// cardinality `moore_hodgson` selects — the optimum is unique even when the
/// selection is not.
std::size_t moore_hodgson_count(std::vector<DeadlineJob>& jobs, std::vector<Time>& heap_scratch);

/// One job of a horizon-shiftable instance — the *build* step of a makespan
/// search.  The spider node instance only shifts with its horizon: a node
/// built at horizon `H` with deadline `deadline` has deadline
/// `deadline - (H - T)` at any `T <= H`, and exists there iff that is still
/// at least `proc_time`.  A uniform shift keeps EDD order, so an
/// instance ordered once (`operator<`: deadline, then processing time, then
/// id — the deterministic EDD order of `moore_hodgson`) serves every probe
/// of the search and the final selection.  `id` is the node's enumeration
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

/// The *probe* step: `moore_hodgson_count` of the EDD-ordered instance `edd`
/// built at `H`, probed at `T = H - shift` (`shift >= 0`) — every deadline
/// lowered by `shift`, jobs whose shifted deadline falls below their
/// processing time skipped — capped at `limit`.  Equals
/// `min(moore_hodgson_count(instance built at T), limit)`; linear in `edd`
/// plus the heap work, no sort, and it stops once `limit` jobs are selected
/// (the selection never shrinks).
std::size_t moore_hodgson_count(const std::vector<EddJob>& edd, Time shift, std::size_t limit,
                                std::vector<Time>& heap_scratch);

/// Positional-release selection — the release-date generalization behind
/// the spider workload algorithms.  Tasks are identical apart from
/// their release dates, so the dates bind *positionally*: the j-th selected
/// emission in time order (0-based) cannot start before `releases[j]`
/// (`releases` sorted ascending).  At most `min(max_count, releases.size())`
/// jobs can be selected.  Solved exactly by the O(N·K) selection DP over the
/// EDD order (`dp[j]` = minimal completion time of a feasible j-job
/// selection of the processed prefix); Moore–Hodgson's eviction rule does
/// not extend to position-dependent machine availability, the DP does.
/// A probe step like the count above: `edd` is EDD-ordered and built at
/// `H`, probed at `T = H - shift` (release dates stay absolute).
/// `dp_scratch` is reused capacity (cleared).
std::size_t moore_hodgson_released_count(const std::vector<EddJob>& edd, Time shift,
                                         const std::vector<Time>& releases,
                                         std::size_t max_count, std::vector<Time>& dp_scratch);

/// Positional-release selection over the same shifted instance (`edd`
/// EDD-ordered, built at `H`, selected at `T = H - shift`); it reads and
/// keeps the built instance, so a release-dated makespan search selects at
/// its optimum without rebuilding it.  Leaves the jobs of one maximum
/// selection, as built, in `picked`, in the EDD order they must be
/// sequenced in (position j gets release `releases[j]`).  Runs the count's
/// DP row in `dp_scratch` and keeps, per job, one bit per count in `taken`
/// — whether the job lowered that DP entry — to backtrack (ties toward
/// leaving a job out).  Deterministic; every buffer is reused capacity.
void moore_hodgson_released(const std::vector<EddJob>& edd, Time shift,
                            const std::vector<Time>& releases, std::size_t max_count,
                            std::vector<Time>& dp_scratch, std::vector<std::uint64_t>& taken,
                            std::vector<EddJob>& picked);

/// True iff the given jobs all meet their deadlines when run back-to-back in
/// EDD order — the canonical feasibility test for a selection.
bool edd_feasible(std::vector<DeadlineJob> jobs);

/// EDD sequencing: returns, for each input job (by position), its start time
/// on the machine when the set is run back-to-back in EDD order from time 0.
/// Requires the set to be `edd_feasible`; throws `std::logic_error` if not.
std::vector<Time> sequence_edd(const std::vector<DeadlineJob>& jobs);

}  // namespace mst
