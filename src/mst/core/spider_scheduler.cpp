#include "mst/core/spider_scheduler.hpp"

#include <algorithm>
#include <iterator>
#include <tuple>
#include <vector>

#include "mst/common/assert.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/core/kernels.hpp"
#include "mst/core/moore_hodgson.hpp"

namespace mst {

SpiderTransformation SpiderScheduler::transform(const Spider& spider, Time t_lim,
                                                std::size_t cap) {
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  SpiderTransformation result;
  result.leg_schedules.reserve(spider.num_legs());
  for (std::size_t l = 0; l < spider.num_legs(); ++l) {
    ChainSchedule leg_schedule = ChainScheduler::schedule_within(spider.leg(l), t_lim, cap);
    auto leg_nodes = expand_leg(leg_schedule, l, t_lim);
    result.nodes.insert(result.nodes.end(), leg_nodes.begin(), leg_nodes.end());
    result.leg_schedules.push_back(std::move(leg_schedule));
  }
  return result;
}

namespace {

void require_uniform_sizes(const Workload& workload) {
  MST_REQUIRE(workload.uniform_sizes(),
              "the spider reduction is only optimal for identical task sizes");
}

/// The bounds of every spider makespan search for `n` tasks: each leg is a
/// source, and each of its processors is reached after the leg's path
/// latency.
detail::SearchRange search_range(const Spider& spider, std::size_t n) {
  detail::SearchRange range(n);
  for (const Chain& leg : spider.legs()) {
    range.add_source(leg.proc(0));
    Time path = 0;
    for (const Processor& proc : leg.procs()) {
      if (__builtin_add_overflow(path, proc.comm, &path)) break;
      range.add_reach(path, proc.work);
    }
  }
  return range;
}

// Steps (1)–(4) run on warm scratch only — statically allocation-checked
// (dynamic twins: tests/test_counting.cpp, tests/test_zero_alloc.cpp).
// mstlint: zero-alloc

/// Step (4): revert to a spider schedule.  Replays `scratch.chosen` —
/// (deadline, leg, task_index) in emission order — on the master port:
/// emissions back-to-back from 0, the j-th no earlier than `releases[j]`
/// when release dates are given, everything downstream of the first link
/// untouched.  Lemma 3: the fork step never needs to emit later than the
/// leg schedule did, so moving the first emission earlier is always legal.
/// `out` is rebuilt in recycled slots.
void resequence(const Spider& spider, const std::vector<Time>* releases,
                SpiderSolveScratch& scratch, SpiderSchedule& out) {
  out.spider = spider;  // copy-assign reuses the nested leg buffers when warm
  std::size_t used = 0;
  Time port = 0;
  for (const auto& [deadline, leg, task_index] : scratch.chosen) {
    const ChainTask& src = scratch.legs[leg].tasks[task_index];
    const Time emission = releases != nullptr ? std::max(port, (*releases)[used]) : port;
    port = emission + spider.leg(leg).comm(0);
    MST_ASSERT(port <= deadline);
    MST_ASSERT(emission <= src.emissions.front());
    if (used == out.tasks.size()) out.tasks.emplace_back();
    SpiderTask& task = out.tasks[used++];
    task.leg = leg;
    task.proc = src.proc;
    task.start = src.start;
    task.emissions.assign(src.emissions.begin(), src.emissions.end());
    task.emissions.front() = emission;
  }
  out.tasks.resize(used);
}

/// The longest prefix of the joining leg `g`'s `built` ranks (latest
/// emissions first) that keeps the selection EDD-feasible, in one pass
/// (`c = g.comm > 0`; ranks `0..k-1` are due at `d_0 > d_1 > …`):
///   * rank `i` completes at `E(d_i) + c·(k − i)`, `E(d)` being the
///     selection's completion up to deadline `d`: `k <= i + (d_i − E(d_i))/c`;
///   * a selected node with `r` ranks due after it completes `c·(k − r)`
///     later once `k > r`: `k <= r + slack/c`.
/// Each bound binds only prefixes longer than its threshold (`i` or `r`)
/// and is never below it, so the answer is the least bound.  In descending
/// deadline order the thresholds only grow, so the pass stops once one
/// reaches the least bound so far.
std::size_t longest_prefix(const SpiderCountScratch& scratch, const GreedyLeg& g,
                           std::size_t built) {
  const Time* const emissions = scratch.emissions.data() + g.first;
  std::size_t limit = built;
  // `limit = min(limit, threshold + slack/c)`, dividing only when that
  // lowers it; `limit·c` is at most the port time left, so no overflow.
  const auto bound = [&](std::size_t threshold, Time slack) {
    if (threshold < limit && slack < static_cast<Time>(limit - threshold) * g.comm) {
      limit = threshold + static_cast<std::size_t>(slack / g.comm);
    }
  };
  const GreedyNode* const begin = scratch.selected.data();
  const GreedyNode* next = begin + scratch.selected.size();  // selected nodes left: [begin, next)
  for (std::size_t i = 0; i < limit; ++i) {
    const Time deadline = emissions[i] + g.comm;
    // Selected nodes due at or after rank i, before rank i - 1: `i` ranks
    // are due after them.
    for (; next != begin && (next - 1)->deadline >= deadline; --next) {
      bound(i, (next - 1)->deadline - (next - 1)->end);
    }
    if (i >= limit) break;
    // Rank i, after the selected nodes due before it.  A node due at the
    // same time ends `E(d_i)` when it is the last of them, and its bound
    // above was rank i's own.
    bound(i, deadline - (next == begin ? 0 : (next - 1)->end));
  }
  return limit;
}

/// Merges the joining leg's `k` latest nodes into the selection, EDD order
/// with completion times.  Nodes due before the smallest new deadline keep
/// theirs.  The merged selection is feasible, so every completion is at
/// most its deadline and no sum overflows.
void join_leg(SpiderCountScratch& scratch, const GreedyLeg& g, std::size_t k) {
  const Time* const emissions = scratch.emissions.data() + g.first;
  const std::vector<GreedyNode>& selected = scratch.selected;
  auto it = std::lower_bound(
      selected.begin(), selected.end(), emissions[k - 1] + g.comm,
      [](const GreedyNode& node, Time deadline) { return node.deadline < deadline; });
  Time end = it == selected.begin() ? 0 : std::prev(it)->end;
  scratch.merged.assign(selected.begin(), it);
  const auto join = [&](Time deadline, Time comm) {
    end += comm;
    MST_ASSERT(end <= deadline);
    scratch.merged.push_back(GreedyNode{deadline, comm, end});
  };
  for (std::size_t j = k; j >= 1; --j) {
    const Time deadline = emissions[j - 1] + g.comm;
    for (; it != selected.end() && it->deadline <= deadline; ++it) join(it->deadline, it->comm);
    join(deadline, g.comm);
  }
  for (; it != selected.end(); ++it) join(it->deadline, it->comm);
  scratch.selected.swap(scratch.merged);
}

/// The greedy's join order, ascending `(c_1, leg)`, in `scratch.legs`; it
/// holds at every horizon, so a makespan search orders once.
void order_legs(const Spider& spider, SpiderCountScratch& scratch) {
  scratch.legs.clear();
  for (std::size_t l = 0; l < spider.num_legs(); ++l) {
    scratch.legs.push_back(GreedyLeg{spider.leg(l).comm(0), l, 0, 0});
  }
  std::sort(scratch.legs.begin(), scratch.legs.end(), [](const GreedyLeg& a, const GreedyLeg& b) {
    return std::tie(a.comm, a.leg) < std::tie(b.comm, b.leg);
  });
}

/// Starts an identical-task decision at `t_lim`: checks its inputs, resets
/// the node count and orders the legs.
void start_greedy(const Spider& spider, Time t_lim, const Workload& workload,
                  SpiderCountScratch& scratch) {
  require_uniform_sizes(workload);
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  scratch.nodes_built = 0;
  order_legs(spider, scratch);
}

/// The identical-task greedy at `t_lim` (steps (1)–(3); the exchange
/// argument is in spider_scheduler.hpp) over the legs `order_legs` left in
/// `scratch.legs`: each builds at most `min(room, (t_lim − used)/c_1)`
/// nodes and keeps the longest prefix of its ranks that fits, at most
/// `k_cap` per leg.  `count_only` stops once `k_cap` are kept and keeps
/// only the joining leg's emissions; a selection keeps every leg's, for the
/// trim.  Returns the nodes kept (`min(optimum, k_cap)` when `count_only`).
std::size_t greedy(const Spider& spider, Time t_lim, std::size_t k_cap, bool count_only,
                   SpiderCountScratch& scratch) {
  for (GreedyLeg& g : scratch.legs) g.kept = 0;
  scratch.selected.clear();
  scratch.emissions.clear();
  std::size_t total = 0;
  Time used = 0;  // port time of the selection, at most `t_lim`
  for (GreedyLeg& g : scratch.legs) {
    if (count_only && total == k_cap) break;
    const std::size_t room = count_only ? k_cap - total : k_cap;
    Time port = 0;  // `room·c_1`: the division only when port time binds
    const std::size_t bound = !__builtin_mul_overflow(room, g.comm, &port) && port <= t_lim - used
                                  ? room
                                  : static_cast<std::size_t>((t_lim - used) / g.comm);
    if (count_only) scratch.emissions.clear();
    g.first = scratch.emissions.size();
    const std::size_t built =
        bound == 0 ? 0
                   : ChainScheduler::count_within_emissions(spider.leg(g.leg), t_lim, bound,
                                                            scratch.chain, scratch.emissions);
    scratch.nodes_built += built;
    // A leg's nodes alone always fit — the earliest is due at `c_1` or
    // later and the rest at least `c_1` apart — and so do nodes that take
    // no port time.
    const std::size_t fits = scratch.selected.empty() || g.comm == 0
                                 ? built
                                 : longest_prefix(scratch, g, built);
    if (fits == 0) continue;
    // Only a later leg reads the merged selection.
    const bool last = &g == &scratch.legs.back() || (count_only && total + fits == k_cap);
    if (!last) join_leg(scratch, g, fits);
    g.kept = fits;
    total += fits;
    used += static_cast<Time>(fits) * g.comm;
  }
  return total;
}

/// The release-dated makespan search of `workload`'s `n` tasks, bracketed
/// by the identical-task optimum `t_id` (a result beyond the paper, which
/// searches the whole horizon):
///   * `LB = max(floor, t_id)`.  `floor` is the release one-port floor
///     (`detail::SearchRange`).  Release dates only remove selections — a
///     DP selection is EDD-feasible without them too — so `T* >= t_id`.
///   * `UB = t_id + δ`.  Take the greedy's `n` nodes at `t_id`, in the DP's
///     own EDD order `(deadline, proc_time, id)`, `P_j` the sum of the first
///     `j` processing times, and `δ = max_j (r[j] − P_j)⁺`.  At `UB` the
///     same nodes exist with every deadline `δ` later (the shift lemma,
///     `detail::min_horizon`), and by induction the j-th completes at
///     `C_j <= P_{j+1} + δ`: it starts at `max(C_{j-1}, r[j]) <= P_j + δ`.
///     `P_{j+1}` is at most its deadline at `t_id`, so the DP count at `UB`
///     reaches `n`.  Summing `P_j` in any other order — the schedule's port
///     order, ties broken by leg, say — is not a bound.  `δ` is at most the
///     last release, so `UB` stays within the search's top.
/// Builds once at `UB` and bisects `[LB, UB]` with DP probes, none when
/// `LB == UB`; leaves `[LB, UB]` in `count.floor` and `count.top`.
Time search_released(const Spider& spider, const Workload& workload, Time floor, Time t_id,
                     SpiderCountScratch& count) {
  const std::size_t n = workload.count();
  const std::vector<Time>& releases = workload.releases();
  const std::size_t kept = greedy(spider, t_id, n, /*count_only=*/true, count);
  MST_ASSERT(kept == n);
  // A count leaves the leg it completes with out of the merged selection,
  // which is `(deadline, comm, leg)` ordered, `end` being `P_{j+1}`.
  const auto last = std::find_if(count.legs.rbegin(), count.legs.rend(),
                                 [](const GreedyLeg& g) { return g.kept > 0; });
  join_leg(count, *last, last->kept);
  Time delay = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const GreedyNode& node = count.selected[j];
    delay = std::max(delay, releases[j] - (node.end - node.comm));
  }
  count.floor = std::max(floor, t_id);
  count.top = t_id + delay;
  MST_ASSERT(count.floor <= count.top);
  SpiderScheduler::build_instance(spider, count.top, workload, n, count);
  return detail::search_instance(count, count.floor, count.top, n, [&](Time t) {
    return SpiderScheduler::probe_instance(t, workload, n, count);
  });
}

/// Steps (3)–(4) at `t_lim` for the workload and cap `k_cap`, into `out`.
/// Release-dated selections read the instance built in `scratch.count`,
/// identical-task ones the leg order `order_legs` left there.
///
/// Step (3) selects on the master's one-port and counts the selected nodes
/// per leg.  Each leg is then normalized to its smallest-exec nodes, i.e.
/// the *suffix* of its decision schedule: swapping a selected node for an
/// unselected same-comm node with a later deadline keeps the selection
/// EDD-feasible, so counts are preserved (the greedy keeps such prefixes of
/// ranks already).  A suffix of `k` tasks is the first `k` steps of the
/// leg's backward construction at `t_lim` (Lemma 4), so only those are
/// rebuilt, never the whole leg.
void select_spider(const Spider& spider, Time t_lim, const Workload& workload,
                   std::size_t k_cap, SpiderSolveScratch& scratch, SpiderSchedule& out) {
  SpiderCountScratch& count = scratch.count;
  const Time shift = count.build_horizon - t_lim;
  const std::size_t num_legs = spider.num_legs();
  scratch.counts.assign(num_legs, 0);
  const std::vector<Time>* releases = nullptr;
  if (workload.has_release_dates()) {
    // Release-aware: positional-release selection on the one-port.
    releases = &workload.releases();
    moore_hodgson_released(count.edd, shift, *releases, k_cap, count.dp, scratch.taken,
                           scratch.picked);
    for (const EddJob& job : scratch.picked) {
      ++scratch.counts[detail::run_of(count.offsets, job.id)];
    }
  } else {
    std::size_t total = greedy(spider, t_lim, k_cap, /*count_only=*/false, count);
    // Global cap: trim the hardest node (largest exec among each leg's next
    // removal candidate, its earliest kept task; ties toward the lower leg)
    // until within cap.  Removing never breaks feasibility.
    for (; total > k_cap; --total) {
      GreedyLeg* worst = nullptr;
      Time worst_exec = 0;
      for (GreedyLeg& g : count.legs) {
        if (g.kept == 0) continue;
        const Time exec = t_lim - count.emissions[g.first + g.kept - 1] - g.comm;
        if (worst == nullptr || exec > worst_exec || (exec == worst_exec && g.leg < worst->leg)) {
          worst_exec = exec;
          worst = &g;
        }
      }
      MST_ASSERT(worst != nullptr);
      --worst->kept;
    }
    for (const GreedyLeg& g : count.legs) scratch.counts[g.leg] = g.kept;
  }

  // Each leg's kept suffix, in ascending first-emission order.
  if (scratch.legs.size() < num_legs) scratch.legs.resize(num_legs);
  for (std::size_t l = 0; l < num_legs; ++l) {
    if (scratch.counts[l] == 0) continue;
    ChainScheduler::schedule_within_into(spider.leg(l), t_lim, scratch.counts[l], count.chain,
                                         scratch.legs[l]);
  }

  scratch.chosen.clear();
  if (releases != nullptr) {
    // Step (4) with release gating: replay the DP's own EDD sequence —
    // position j starts no earlier than the j-th smallest release date, and
    // the DP already proved every completion meets its node's deadline.
    // Each leg's positions are mapped, in order, onto the suffix tasks of
    // its schedule (only suffixes are realizable, Lemma 4): within a leg
    // the EDD order is ascending deadline, and the suffix deadlines
    // dominate any chosen subset's pointwise, so the mapped tasks only ever
    // gain slack.  (A global re-sort after the swap would NOT be safe:
    // moving a job to a later EDD position also moves it to a later
    // positional release, which can exceed the relaxed deadline.  Keeping
    // the DP's sequence sidesteps that entirely.)  `scratch.counts` becomes
    // each leg's next suffix task.
    scratch.counts.assign(num_legs, 0);
    for (const EddJob& job : scratch.picked) {
      const std::size_t leg = detail::run_of(count.offsets, job.id);
      scratch.chosen.emplace_back(job.deadline - shift, leg, scratch.counts[leg]++);
    }
  } else {
    // Step (4) in EDD order of the kept suffix tasks' emission-completion
    // deadlines.
    for (std::size_t l = 0; l < num_legs; ++l) {
      const Time c1 = spider.leg(l).comm(0);
      for (std::size_t j = 0; j < scratch.counts[l]; ++j) {
        scratch.chosen.emplace_back(scratch.legs[l].tasks[j].emissions.front() + c1, l, j);
      }
    }
    std::sort(scratch.chosen.begin(), scratch.chosen.end());
  }
  resequence(spider, releases, scratch, out);
}

}  // namespace

std::size_t SpiderScheduler::count_within(const Spider& spider, Time t_lim, std::size_t cap,
                                          SpiderCountScratch& scratch) {
  return count_within(spider, t_lim, Workload::identical(cap), cap, scratch);
}

std::size_t SpiderScheduler::count_within(const Spider& spider, Time t_lim,
                                          const Workload& workload, std::size_t cap,
                                          SpiderCountScratch& scratch) {
  if (workload.has_release_dates()) {
    scratch.nodes_built = 0;
    build_instance(spider, t_lim, workload, cap, scratch);
    return probe_instance(t_lim, workload, cap, scratch);
  }
  start_greedy(spider, t_lim, workload, scratch);
  return greedy(spider, t_lim, std::min(cap, workload.count()), /*count_only=*/true, scratch);
}

void SpiderScheduler::build_instance(const Spider& spider, Time horizon,
                                     const Workload& workload, std::size_t cap,
                                     SpiderCountScratch& scratch) {
  require_uniform_sizes(workload);
  MST_REQUIRE(horizon >= 0, "time limit must be non-negative");
  // Steps (1)–(2) count-only: each leg's backward construction with the
  // first-emissions sink, whose emissions become virtual-node deadlines
  // (`expand_leg`: deadline = C_1 + c_1).  The leg emissions at
  // `T <= horizon` are these shifted down and cut before the first negative
  // one, i.e. exactly the nodes whose shifted deadline is still at least
  // `c_1` — the probe's filter.  Leg `l`'s emissions land in
  // `scratch.emissions[offsets[l] ..]`, latest first; reversed, they are
  // its run in EDD order, with ids `offsets[l] + j` in ascending first
  // emission (the node order of `transform`).
  const std::size_t k_cap = std::min(cap, workload.count());
  scratch.build_horizon = horizon;
  scratch.emissions.clear();
  scratch.offsets.assign(1, 0);
  for (const Chain& leg : spider.legs()) {
    ChainScheduler::count_within_emissions(leg, horizon, k_cap, scratch.chain, scratch.emissions);
    scratch.offsets.push_back(scratch.emissions.size());
  }
  scratch.nodes_built += scratch.emissions.size();
  detail::merge_edd_runs(
      scratch.offsets,
      [&](std::size_t l, std::size_t j) {
        const Time c1 = spider.leg(l).comm(0);
        const Time emission = scratch.emissions[scratch.offsets[l + 1] - 1 - j];
        return EddJob{emission + c1, c1, scratch.offsets[l] + j};
      },
      scratch.merge, scratch.edd);
}

std::size_t SpiderScheduler::probe_instance(Time t_lim, const Workload& workload,
                                            std::size_t cap, SpiderCountScratch& scratch) {
  // Step (3) with release dates: the positional-release selection DP.
  // Counts are per-leg capped like the materialized path.  Identical tasks
  // never probe a built instance: their counts are the greedy's.
  MST_REQUIRE(workload.has_release_dates(),
              "a built spider instance is probed only with release dates");
  MST_REQUIRE(t_lim >= 0 && t_lim <= scratch.build_horizon,
              "probe horizon must lie in [0, build horizon]");
  return moore_hodgson_released_count(scratch.edd, scratch.build_horizon - t_lim,
                                      workload.releases(), std::min(cap, workload.count()),
                                      scratch.dp);
}

void SpiderScheduler::schedule_within_into(const Spider& spider, Time t_lim, std::size_t cap,
                                           SpiderSolveScratch& scratch, SpiderSchedule& out) {
  schedule_within_into(spider, t_lim, Workload::identical(cap), cap, scratch, out);
}

void SpiderScheduler::schedule_within_into(const Spider& spider, Time t_lim,
                                           const Workload& workload, std::size_t cap,
                                           SpiderSolveScratch& scratch, SpiderSchedule& out) {
  if (workload.has_release_dates()) {
    scratch.count.nodes_built = 0;
    build_instance(spider, t_lim, workload, cap, scratch.count);
  } else {
    start_greedy(spider, t_lim, workload, scratch.count);
  }
  select_spider(spider, t_lim, workload, std::min(cap, workload.count()), scratch, out);
}

void SpiderScheduler::schedule_into(const Spider& spider, const Workload& workload,
                                    SpiderSolveScratch& scratch, SpiderSchedule& out) {
  require_uniform_sizes(workload);
  MST_REQUIRE(workload.count() >= 1, "schedule needs at least one task");
  // The identical-task optimum, every probe a greedy count; release dates
  // then bracket their own search from it.
  const std::size_t n = workload.count();
  const detail::SearchRange range = search_range(spider, n);
  const Time top = range.top(workload.last_release());  // rejects an overflowing range first
  SpiderCountScratch& count = scratch.count;
  count.floor = range.floor();
  count.top = range.top();
  count.nodes_built = 0;
  order_legs(spider, count);
  Time horizon = detail::search_instance(count, count.floor, count.top, n, [&](Time t) {
    return greedy(spider, t, n, /*count_only=*/true, count);
  });
  if (workload.has_release_dates()) {
    horizon = search_released(spider, workload, range.floor(workload.releases()), horizon, count);
    MST_ASSERT(count.top <= top);
  }
  select_spider(spider, horizon, workload, n, scratch, out);
  MST_ASSERT(out.tasks.size() == n);
  // Release dates pin the origin; identical workloads start at 0.
  if (!workload.has_release_dates()) out.normalize();
  start_early(scratch, out);
}

void SpiderScheduler::start_early(SpiderSolveScratch& scratch, SpiderSchedule& out) {
  const Spider& spider = out.spider;
  scratch.counts.clear();
  std::size_t nodes = 0;
  for (const Chain& leg : spider.legs()) {
    scratch.counts.push_back(nodes);
    nodes += leg.size();
  }
  scratch.free.assign(nodes, NodeFree{});
  for (SpiderTask& task : out.tasks) {
    const Chain& leg = spider.leg(task.leg);
    NodeFree* const node = scratch.free.data() + scratch.counts[task.leg];
    Time arrival = task.emissions.front() + leg.comm(0);
    for (std::size_t d = 1; d <= task.proc; ++d) {
      const Time relay = std::max(arrival, node[d - 1].port);
      MST_ASSERT(relay <= task.emissions[d]);
      task.emissions[d] = relay;
      arrival = relay + leg.comm(d);
      node[d - 1].port = arrival;
    }
    const Time start = std::max(arrival, node[task.proc].proc);
    MST_ASSERT(start <= task.start);
    task.start = start;
    node[task.proc].proc = start + leg.work(task.proc);
  }
}
// mstlint: zero-alloc-end

// Value-returning forms: a local scratch around the `_into` forms above.

SpiderSchedule SpiderScheduler::schedule_within(const Spider& spider, Time t_lim,
                                                std::size_t cap) {
  return schedule_within(spider, t_lim, Workload::identical(cap), cap);
}

SpiderSchedule SpiderScheduler::schedule_within(const Spider& spider, Time t_lim,
                                                const Workload& workload, std::size_t cap) {
  SpiderSolveScratch scratch;
  SpiderSchedule out;
  schedule_within_into(spider, t_lim, workload, cap, scratch, out);
  return out;
}

SpiderSchedule SpiderScheduler::schedule(const Spider& spider, std::size_t n) {
  return schedule(spider, Workload::identical(n));
}

SpiderSchedule SpiderScheduler::schedule(const Spider& spider, const Workload& workload) {
  SpiderSolveScratch scratch;
  SpiderSchedule out;
  schedule_into(spider, workload, scratch, out);
  return out;
}

Time SpiderScheduler::makespan(const Spider& spider, std::size_t n) {
  return schedule(spider, n).makespan();
}

std::size_t SpiderScheduler::max_tasks(const Spider& spider, Time t_lim, std::size_t cap) {
  SpiderCountScratch scratch;
  return count_within(spider, t_lim, cap, scratch);
}

}  // namespace mst
