#include "mst/workload/workload_io.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "mst/common/assert.hpp"
#include "mst/common/lexer.hpp"

namespace mst {

std::string write_workload(const Workload& workload) {
  std::ostringstream os;
  os << "workload " << workload.count() << '\n';
  if (!workload.uniform_sizes()) {
    os << "sizes";
    for (const Time s : workload.sizes()) os << ' ' << s;
    os << '\n';
  }
  if (workload.has_release_dates()) {
    os << "release";
    for (const Time r : workload.releases()) os << ' ' << r;
    os << '\n';
  }
  return os.str();
}

Workload parse_workload(const std::string& text) {
  Lexer lex(text);
  lex.expect("workload");
  const std::size_t n = lex.next_index("task count");

  std::vector<Time> sizes;
  std::vector<Time> release;
  while (!lex.done()) {
    const std::string key = lex.next("'sizes' or 'release'");
    if (key == "sizes") {
      MST_REQUIRE(sizes.empty(), "duplicate 'sizes' line");
      sizes.reserve(std::min(n, lex.remaining()));
      for (std::size_t i = 0; i < n; ++i) sizes.push_back(lex.next_time("task size"));
    } else if (key == "release") {
      MST_REQUIRE(release.empty(), "duplicate 'release' line");
      release.reserve(std::min(n, lex.remaining()));
      for (std::size_t i = 0; i < n; ++i) release.push_back(lex.next_time("release date"));
    } else {
      MST_REQUIRE(false, "unknown workload key '" + key + "'");
    }
  }
  // Range validation (sizes >= 1, release >= 0) lives in the constructor.
  return Workload(n, std::move(sizes), std::move(release));
}

}  // namespace mst
