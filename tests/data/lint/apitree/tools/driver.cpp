// Fixture: a production caller.
#include "mst/core/api.hpp"

int main() {
  const mst::Widget widget;
  widget.each([](int) {});
  const mst::Point point;
  return mst::used(point.norm()) + widget.area() + mst::overloaded(1) + mst::defaulted(1);
}
