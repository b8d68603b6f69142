#include "mst/schedule/comm_vector.hpp"

#include <algorithm>
#include <sstream>

namespace mst {

bool precedes(const CommVector& a, const CommVector& b) {
  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t k = 0; k < common; ++k) {
    if (a[k] != b[k]) return a[k] < b[k];
  }
  // Equal on the common prefix: the longer vector is the smaller one.
  return a.size() > b.size();
}

bool precedes_or_equal(const CommVector& a, const CommVector& b) {
  return a == b || precedes(a, b);
}

std::string to_string(const CommVector& v) {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) os << ", ";
    os << v[i];
  }
  os << '}';
  return os.str();
}

}  // namespace mst
