// Fixture: calls from tests/ do not count as uses.
#include "mst/core/api.hpp"

int main() { return mst::flagged(1) + mst::allowed(2) + mst::overloaded(1, 2); }
