#pragma once

/// \file mst.hpp
/// Umbrella header: the whole public API of the master-slave tasking
/// library.  Fine-grained headers remain available for compile-time-
/// conscious users; examples and quick experiments can just include this.

#include "mst/common/cli.hpp"
#include "mst/common/lexer.hpp"
#include "mst/common/rational.hpp"
#include "mst/common/rng.hpp"
#include "mst/common/stats.hpp"
#include "mst/common/table.hpp"
#include "mst/common/time.hpp"

#include "mst/obs/metrics.hpp"
#include "mst/obs/observation.hpp"
#include "mst/obs/trace.hpp"

#include "mst/workload/arrival.hpp"
#include "mst/workload/workload.hpp"
#include "mst/workload/workload_io.hpp"

#include "mst/platform/any.hpp"
#include "mst/platform/chain.hpp"
#include "mst/platform/fork.hpp"
#include "mst/platform/generator.hpp"
#include "mst/platform/io.hpp"
#include "mst/platform/processor.hpp"
#include "mst/platform/spider.hpp"
#include "mst/platform/tree.hpp"

#include "mst/schedule/chain_schedule.hpp"
#include "mst/schedule/comm_vector.hpp"
#include "mst/schedule/feasibility.hpp"
#include "mst/schedule/gantt.hpp"
#include "mst/schedule/json.hpp"
#include "mst/schedule/metrics.hpp"
#include "mst/schedule/spider_schedule.hpp"
#include "mst/schedule/schedule_io.hpp"
#include "mst/schedule/svg.hpp"

#include "mst/core/chain_scheduler.hpp"
#include "mst/core/chain_trace.hpp"
#include "mst/core/moore_hodgson.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/core/virtual_nodes.hpp"

#include "mst/baselines/asap.hpp"
#include "mst/baselines/bounds.hpp"
#include "mst/baselines/brute_force.hpp"
#include "mst/baselines/forward_greedy.hpp"
#include "mst/baselines/round_robin.hpp"
#include "mst/baselines/single_node.hpp"
#include "mst/baselines/periodic.hpp"
#include "mst/baselines/tree_asap.hpp"

#include "mst/sim/dispatch_render.hpp"
#include "mst/sim/online.hpp"
#include "mst/sim/platform_sim.hpp"
#include "mst/sim/static_replay.hpp"
#include "mst/sim/streaming.hpp"

#include "mst/analysis/robustness.hpp"
#include "mst/analysis/throughput.hpp"

#include "mst/api/curves.hpp"
#include "mst/api/platform_io.hpp"
#include "mst/api/registry.hpp"
#include "mst/api/stream.hpp"
#include "mst/api/trace_replay.hpp"

#include "mst/scenario/generators.hpp"
#include "mst/scenario/report.hpp"
#include "mst/scenario/runner.hpp"
#include "mst/scenario/spec.hpp"

#include "mst/heuristics/local_search.hpp"
#include "mst/heuristics/tree_cover.hpp"
#include "mst/heuristics/tree_schedule.hpp"
