// Fixture: perfbench/ is read for references only; this file is never
// linted, so the ambient rand() below must not fire.
#include <cstdlib>

#include "mst/core/api.hpp"

int main() { return mst::bench_only(std::rand()); }
