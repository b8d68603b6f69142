#include "mst/platform/spider.hpp"

#include <sstream>

#include "mst/common/assert.hpp"

namespace mst {

Spider::Spider(std::vector<Chain> legs) : legs_(std::move(legs)) {
  MST_REQUIRE(!legs_.empty(), "spider must contain at least one leg");
}

Spider::Spider(std::initializer_list<Chain> legs) : legs_(legs) {
  MST_REQUIRE(!legs_.empty(), "spider must contain at least one leg");
}

Spider Spider::from_fork(const Fork& fork) {
  Spider spider;
  spider.assign_fork(fork);
  return spider;
}

// mstlint: zero-alloc
void Spider::assign_fork(const Fork& fork) {
  MST_REQUIRE(fork.size() > 0, "spider must contain at least one leg");
  legs_.resize(fork.size());
  for (std::size_t l = 0; l < legs_.size(); ++l) legs_[l].assign({&fork.slaves()[l], 1});
}
// mstlint: zero-alloc-end

const Chain& Spider::leg(std::size_t l) const {
  MST_REQUIRE(l < legs_.size(), "leg index out of range");
  return legs_[l];
}

std::size_t Spider::num_processors() const {
  std::size_t total = 0;
  for (const Chain& leg : legs_) total += leg.size();
  return total;
}

std::string Spider::describe() const {
  std::ostringstream os;
  os << "spider{";
  for (std::size_t l = 0; l < legs_.size(); ++l) {
    if (l) os << "; ";
    os << legs_[l].describe();
  }
  os << '}';
  return os.str();
}

}  // namespace mst
