// Cluster pipeline: a chain of compute sites behind one another — the
// heterogeneous linear array of the paper's §3 (and of Li's layered
// networks, cited in §1).  A head node feeds a campus cluster, which relays
// to a remote site, which relays to an archive farm.
//
//   $ ./example_cluster_pipeline [--tasks=40] [--svg=pipeline.svg]
//
// Shows: hand-building a chain, the optimal backward schedule, per-stage
// utilization, idle-gap analysis on the shared uplink, and SVG export.

#include <fstream>
#include <iostream>

#include "mst/mst.hpp"

int main(int argc, char** argv) {
  using namespace mst;
  const Args args(argc, argv);
  const auto tasks = static_cast<std::size_t>(args.get_int("tasks", 40));
  const std::string svg_path = args.get("svg", "");

  // Stage latencies/speeds in seconds per task.
  const Chain pipeline = Chain::from_vectors(
      /*link latencies*/ {1, 4, 10},
      /*work times*/ {6, 3, 2});
  // Stage 0: campus cluster — close (c=1) but moderately fast (w=6).
  // Stage 1: remote site — farther (c=4), faster (w=3).
  // Stage 2: archive farm — slow uplink (c=10), fastest nodes (w=2).

  std::cout << "== cluster pipeline scheduler ==\n";
  std::cout << "platform: " << pipeline.describe() << "\n";
  std::cout << "tasks: " << tasks << "\n\n";

  const ChainSchedule plan = ChainScheduler::schedule(pipeline, tasks);
  std::cout << "optimal makespan: " << plan.makespan() << " s\n";
  std::cout << "lower bound:      " << makespan_lower_bound(legs_of(pipeline), tasks) << " s\n";
  const Workload batch = Workload::identical(tasks);
  std::cout << "single best node: " << single_node(pipeline, batch).makespan() << " s\n";
  std::cout << "forward greedy:   " << forward_greedy(pipeline, batch).makespan() << " s\n\n";

  const ChainUtilization util = compute_utilization(plan);
  Table table({"stage", "tasks", "cpu busy %", "uplink busy %"});
  for (std::size_t q = 0; q < pipeline.size(); ++q) {
    table.row()
        .cell(q)
        .cell(util.tasks_per_proc[q])
        .cell(util.proc_busy_fraction[q] * 100.0, 1)
        .cell(util.link_busy_fraction[q] * 100.0, 1);
  }
  table.print(std::cout);

  const auto gaps = first_link_idle_gaps(plan);
  std::cout << "\nidle gaps on the head uplink: " << gaps.size();
  Time total_gap = 0;
  for (const auto& [from, to] : gaps) total_gap += to - from;
  std::cout << " (total " << total_gap << " s)\n";

  // Compact Gantt for a quick look (compress to ~80 columns).
  const Time scale = std::max<Time>(1, plan.makespan() / 78);
  std::cout << "\n" << render_gantt(plan, scale);

  if (!svg_path.empty()) {
    std::ofstream out(svg_path);
    out << render_svg(plan);
    std::cout << "\nSVG written to " << svg_path << "\n";
  }
  return 0;
}
