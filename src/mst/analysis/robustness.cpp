#include "mst/analysis/robustness.hpp"

#include <algorithm>
#include <vector>

#include "mst/baselines/asap.hpp"
#include "mst/common/assert.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/workload/workload.hpp"

namespace mst {

namespace {

Time perturb_value(Time value, double epsilon, Time floor, Rng& rng) {
  const double factor = 1.0 + epsilon * (2.0 * rng.uniform01() - 1.0);
  const double scaled = static_cast<double>(value) * factor;
  return std::max<Time>(floor, static_cast<Time>(scaled + 0.5));
}

}  // namespace

Chain perturb(const Chain& chain, double epsilon, Rng& rng) {
  MST_REQUIRE(epsilon >= 0.0 && epsilon <= 1.0, "epsilon must be in [0, 1]");
  std::vector<Processor> procs;
  procs.reserve(chain.size());
  for (const Processor& p : chain.procs()) {
    procs.push_back({perturb_value(p.comm, epsilon, 0, rng),
                     perturb_value(p.work, epsilon, 1, rng)});
  }
  return Chain(std::move(procs));
}

Spider perturb(const Spider& spider, double epsilon, Rng& rng) {
  std::vector<Chain> legs;
  legs.reserve(spider.num_legs());
  for (const Chain& leg : spider.legs()) legs.push_back(perturb(leg, epsilon, rng));
  return Spider(std::move(legs));
}

RobustnessResult evaluate_stale_plan(const Chain& believed, const Chain& actual,
                                     std::size_t n) {
  MST_REQUIRE(believed.size() == actual.size(), "platform shapes must match");
  const ChainSchedule plan = ChainScheduler::schedule(believed, n);
  // The plan's decision content: destinations in emission order (the
  // schedule is already sorted by first emission).
  std::vector<std::size_t> dests;
  dests.reserve(n);
  for (const ChainTask& t : plan.tasks) dests.push_back(t.proc);

  RobustnessResult result;
  result.stale_plan = asap_chain_schedule(actual, dests, Workload::identical(n)).makespan();
  result.replanned = ChainScheduler::makespan(actual, n);
  MST_ASSERT(result.stale_plan >= result.replanned);
  return result;
}

RobustnessResult evaluate_stale_plan(const Spider& believed, const Spider& actual,
                                     std::size_t n) {
  MST_REQUIRE(believed.num_legs() == actual.num_legs(), "platform shapes must match");
  for (std::size_t l = 0; l < believed.num_legs(); ++l) {
    MST_REQUIRE(believed.leg(l).size() == actual.leg(l).size(),
                "platform shapes must match");
  }
  SpiderSchedule plan = SpiderScheduler::schedule(believed, n);
  std::vector<std::size_t> order(plan.tasks.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&plan](std::size_t a, std::size_t b) {
    return plan.tasks[a].emissions.front() < plan.tasks[b].emissions.front();
  });
  std::vector<SpiderDest> dests;
  dests.reserve(n);
  for (std::size_t idx : order) {
    dests.push_back({plan.tasks[idx].leg, plan.tasks[idx].proc});
  }

  RobustnessResult result;
  result.stale_plan = asap_spider_schedule(actual, dests, Workload::identical(n)).makespan();
  result.replanned = SpiderScheduler::makespan(actual, n);
  MST_ASSERT(result.stale_plan >= result.replanned);
  return result;
}

}  // namespace mst
