#pragma once

#include <cstddef>
#include <span>
#include <type_traits>

#include "mst/schedule/chain_schedule.hpp"
#include "mst/schedule/spider_schedule.hpp"

/// \file legs.hpp
/// A chain is the one-leg spider (§7 runs the chain algorithm on every
/// leg).  The Definition 1 checker, the Gantt, SVG and JSON renderers, the
/// static replay and the ASAP replay each walk a schedule's legs once
/// through this view: a chain is leg 0, its resources carry no `leg l`
/// label prefix, and it has no master out-port (a spider's first emissions
/// share one across legs).

namespace mst {

/// The legs of a chain (the chain itself) or of a spider.
inline std::span<const Chain> legs_of(const Chain& chain) { return {&chain, 1}; }
inline std::span<const Chain> legs_of(const Spider& spider) { return spider.legs(); }

/// The leg a task runs on: 0 on a chain.
inline std::size_t leg_of(const ChainTask&) { return 0; }
inline std::size_t leg_of(const SpiderTask& task) { return task.leg; }

/// Whether tasks of this type are a spider's: they share the master's
/// out-port across legs, carry a `leg` field and label resources by leg.
template <class Task>
inline constexpr bool kSpiderTask = std::is_same_v<Task, SpiderTask>;

}  // namespace mst
