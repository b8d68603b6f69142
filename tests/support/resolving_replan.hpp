#pragma once

#include <cstddef>
#include <deque>
#include <stdexcept>
#include <utility>
#include <variant>

#include "mst/core/chain_scheduler.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/platform/any.hpp"
#include "mst/sim/streaming.hpp"
#include "mst/workload/workload.hpp"

/// \file resolving_replan.hpp
/// Test oracle: horizon re-planning that re-runs the exact solver on the
/// whole known backlog after every arrival batch and pops the plan as it
/// dispatches.  The library's `replan` policy reads what it holds instead
/// (a chain's plans are the first ranks of one emission profile; a fork's
/// or spider's last plan restarts when the backlog size repeats);
/// `tests/test_replan.cpp` checks that both dispatch identically.  This is
/// the only copy of the re-solving loop.

namespace mst::oracle {

class ResolvingReplan final : public sim::StreamPolicy {
 public:
  explicit ResolvingReplan(Platform platform) : platform_(std::move(platform)) {
    if (const auto* fork = std::get_if<Fork>(&platform_)) platform_ = Spider::from_fork(*fork);
    if (std::holds_alternative<Tree>(platform_)) {
      throw std::invalid_argument("resolving replan: chain, fork or spider only");
    }
  }

  void observe(const sim::StreamArrival&) override {
    ++backlog_;
    stale_ = true;
  }

  NodeId choose(std::size_t, const sim::DispatchContext&) override {
    if (stale_) {
      plan_.clear();
      const Workload backlog = Workload::identical(backlog_);
      if (const auto* chain = std::get_if<Chain>(&platform_)) {
        for (const ChainTask& task : ChainScheduler::schedule(*chain, backlog).tasks) {
          plan_.push_back(static_cast<NodeId>(task.proc + 1));
        }
      } else {
        const Spider& spider = std::get<Spider>(platform_);
        for (const SpiderTask& task : SpiderScheduler::schedule(spider, backlog).tasks) {
          plan_.push_back(spider_node(spider, {task.leg, task.proc}));
        }
      }
      ++solves_;
      stale_ = false;
    }
    const NodeId dest = plan_.front();
    plan_.pop_front();
    --backlog_;
    return dest;
  }

  /// Solves run so far: one per arrival batch that reached a dispatch.
  [[nodiscard]] std::size_t solves() const { return solves_; }

 private:
  Platform platform_;
  std::size_t backlog_ = 0;
  bool stale_ = false;
  std::deque<NodeId> plan_;
  std::size_t solves_ = 0;
};

}  // namespace mst::oracle
