#include "mst/sim/online.hpp"

#include <memory>

#include "mst/sim/streaming.hpp"

namespace mst::sim {

std::string to_string(OnlinePolicy policy) {
  switch (policy) {
    case OnlinePolicy::kRoundRobin: return "round-robin";
    case OnlinePolicy::kRandom: return "random";
    case OnlinePolicy::kJoinShortestQueue: return "jsq";
    case OnlinePolicy::kEarliestCompletion: return "ect";
  }
  return "?";
}

const std::vector<OnlinePolicy>& all_online_policies() {
  static const std::vector<OnlinePolicy> kAll = {
      OnlinePolicy::kRoundRobin, OnlinePolicy::kRandom, OnlinePolicy::kJoinShortestQueue,
      OnlinePolicy::kEarliestCompletion};
  return kAll;
}

SimResult simulate_online(const Tree& tree, std::size_t n, OnlinePolicy policy,
                          std::uint64_t seed) {
  return simulate_online(tree, Workload::identical(n), policy, seed);
}

SimResult simulate_online(const Tree& tree, const Workload& workload, OnlinePolicy policy,
                          std::uint64_t seed) {
  const std::unique_ptr<StreamPolicy> dispatcher = make_stream_policy(tree, policy, seed);
  return drive_stream(tree, workload, *dispatcher);
}

}  // namespace mst::sim
