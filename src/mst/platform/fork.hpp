#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "mst/platform/processor.hpp"

/// \file fork.hpp
/// Fork (star) platform of §6: one master directly connected to p slaves.

namespace mst {

/// A fork graph: the master has `p` children, each a single slave processor
/// reached through its own link.  The master's *out-port* is the shared
/// resource — it sends one task at a time, so emissions to different slaves
/// serialize even though the links are distinct.
class Fork {
 public:
  Fork() = default;

  /// Throws if empty or any slave is invalid.
  explicit Fork(std::vector<Processor> slaves);
  Fork(std::initializer_list<Processor> slaves);

  [[nodiscard]] std::size_t size() const { return slaves_.size(); }
  [[nodiscard]] const Processor& slave(std::size_t i) const;
  [[nodiscard]] const std::vector<Processor>& slaves() const { return slaves_; }

  [[nodiscard]] std::string describe() const;

  friend bool operator==(const Fork&, const Fork&) = default;

 private:
  std::vector<Processor> slaves_;
};

}  // namespace mst
