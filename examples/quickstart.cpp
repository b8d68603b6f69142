// Quickstart: build a platform, schedule tasks optimally, inspect and
// validate the result.  Start here.
//
//   $ ./example_quickstart
//
// Walks through the three core calls of the library:
//   ChainScheduler::schedule     — optimal makespan on a chain (paper §3)
//   SpiderScheduler::schedule    — optimal makespan on a spider (paper §7)
//   check_feasibility / replay   — validate any schedule (Definition 1)

#include <iostream>

#include "mst/mst.hpp"

int main() {
  using namespace mst;

  // --- 1. A chain: master -> (c=2,w=3) -> (c=3,w=5) --------------------
  const Chain chain = Chain::from_vectors({2, 3}, {3, 5});
  std::cout << "platform: " << chain.describe() << "\n\n";

  // Optimal schedule of 5 identical tasks (this is the paper's Fig 2).
  const ChainSchedule schedule = ChainScheduler::schedule(chain, 5);
  std::cout << "optimal makespan for 5 tasks: " << schedule.makespan() << "\n";
  std::cout << render_gantt(schedule) << "\n";

  // Every schedule can be validated against the paper's Definition 1 ...
  const FeasibilityReport report = check_feasibility(schedule);
  std::cout << "feasible: " << (report.ok() ? "yes" : "no") << "\n";

  // ... and replayed operationally on the discrete-event simulator.
  const sim::ReplayResult replayed = sim::replay(schedule);
  std::cout << "replayed makespan: " << replayed.makespan << " (must match)\n\n";

  // --- 2. The decision form: how many tasks fit in a deadline? ---------
  std::cout << "tasks completable within T=14: "
            << ChainScheduler::max_tasks(chain, 14, 1000) << "\n";
  std::cout << "tasks completable within T=30: "
            << ChainScheduler::max_tasks(chain, 30, 1000) << "\n\n";

  // --- 3. A spider: one master feeding several chains ------------------
  const Spider spider{chain, Chain::from_vectors({4}, {2})};
  const SpiderSchedule sp = SpiderScheduler::schedule(spider, 8);
  std::cout << "spider " << spider.describe() << "\n";
  std::cout << "optimal makespan for 8 tasks: " << sp.makespan() << "\n";
  const auto per_leg = sp.tasks_per_leg();
  for (std::size_t l = 0; l < per_leg.size(); ++l) {
    std::cout << "  leg " << l << " executes " << per_leg[l] << " tasks\n";
  }

  // Compare against what a naive dispatcher would do.
  const Workload eight = Workload::identical(8);
  std::cout << "\nround-robin would need: " << round_robin(spider, eight).makespan() << "\n";
  std::cout << "forward greedy would need: " << forward_greedy(spider, eight).makespan() << "\n";
  std::cout << "steady-state rate bound: " << spider_steady_state_rate(spider)
            << " tasks/unit\n";
  return 0;
}
