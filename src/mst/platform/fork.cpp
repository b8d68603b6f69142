#include "mst/platform/fork.hpp"

#include <sstream>

#include "mst/common/assert.hpp"

namespace mst {

namespace {
void validate(const std::vector<Processor>& slaves) {
  MST_REQUIRE(!slaves.empty(), "fork must contain at least one slave");
  for (const Processor& p : slaves) {
    MST_REQUIRE(p.comm >= 0, "link latency c_i must be non-negative");
    MST_REQUIRE(p.work > 0, "processing time w_i must be strictly positive");
  }
}
}  // namespace

Fork::Fork(std::vector<Processor> slaves) : slaves_(std::move(slaves)) { validate(slaves_); }

Fork::Fork(std::initializer_list<Processor> slaves) : slaves_(slaves) { validate(slaves_); }

const Processor& Fork::slave(std::size_t i) const {
  MST_REQUIRE(i < slaves_.size(), "slave index out of range");
  return slaves_[i];
}

std::string Fork::describe() const {
  std::ostringstream os;
  os << "fork[";
  for (std::size_t i = 0; i < slaves_.size(); ++i) {
    if (i) os << ',';
    os << "(c=" << slaves_[i].comm << ",w=" << slaves_[i].work << ')';
  }
  os << ']';
  return os.str();
}

}  // namespace mst
