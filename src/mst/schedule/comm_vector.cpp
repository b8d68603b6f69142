#include "mst/schedule/comm_vector.hpp"

#include <sstream>

namespace mst {

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
