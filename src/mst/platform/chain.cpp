#include "mst/platform/chain.hpp"

#include <algorithm>
#include <sstream>

#include "mst/common/assert.hpp"

namespace mst {

namespace {
void validate(const std::vector<Processor>& procs) {
  MST_REQUIRE(!procs.empty(), "chain must contain at least one processor");
  for (const Processor& p : procs) {
    MST_REQUIRE(p.comm >= 0, "link latency c_i must be non-negative");
    MST_REQUIRE(p.work > 0, "processing time w_i must be strictly positive");
  }
}
}  // namespace

Chain::Chain(std::vector<Processor> procs) : procs_(std::move(procs)) { validate(procs_); }

Chain::Chain(std::initializer_list<Processor> procs) : procs_(procs) { validate(procs_); }

// mstlint: zero-alloc
void Chain::assign(std::span<const Processor> procs) {
  procs_.assign(procs.begin(), procs.end());
  validate(procs_);
}
// mstlint: zero-alloc-end

Chain Chain::from_vectors(const std::vector<Time>& comms, const std::vector<Time>& works) {
  MST_REQUIRE(comms.size() == works.size(), "comm/work vectors must have equal length");
  std::vector<Processor> procs;
  procs.reserve(comms.size());
  for (std::size_t i = 0; i < comms.size(); ++i) procs.push_back({comms[i], works[i]});
  return Chain(std::move(procs));
}

const Processor& Chain::proc(std::size_t i) const {
  MST_REQUIRE(i < procs_.size(), "processor index out of range");
  return procs_[i];
}

Time Chain::t_infinity(std::size_t n) const {
  MST_REQUIRE(n >= 1, "t_infinity needs at least one task");
  const Processor& p0 = procs_.front();
  Time span = 0;
  const bool overflow = __builtin_mul_overflow(std::max(p0.work, p0.comm), n - 1, &span) ||
                        __builtin_add_overflow(span, p0.comm, &span) ||
                        __builtin_add_overflow(span, p0.work, &span);
  MST_REQUIRE(!overflow,
              "the n-task pipeline on the chain's first processor (T-infinity) exceeds the "
              "largest time 9223372036854775807");
  return span;
}

std::string Chain::describe() const {
  std::ostringstream os;
  os << "chain[";
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    if (i) os << ',';
    os << "(c=" << procs_[i].comm << ",w=" << procs_[i].work << ')';
  }
  os << ']';
  return os.str();
}

}  // namespace mst
