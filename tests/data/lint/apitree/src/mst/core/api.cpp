// Fixture: a call from the header's own source does not count as a use.
#include "mst/core/api.hpp"

namespace mst {

int flagged(int x) { return x; }
int allowed(int x) { return flagged(x); }
int used(int x) { return x; }
int bench_only(int x) { return x; }
int overloaded(int x) { return x; }
int overloaded(int x, int y) { return x + y; }
int defaulted(int x, int y) { return x + y; }

}  // namespace mst
