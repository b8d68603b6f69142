#pragma once

// Fixture: the tests-only-api pass.  Only `flagged` and the two-argument
// `overloaded` may fire: `allowed` carries a justified allow, `used` and
// the one-argument `overloaded` have a caller in tools/, and `bench_only`
// one in perfbench/ (read for references, never linted).  `defaulted` is
// called with one argument, which its default admits.
// Constructors, operators, virtual, defaulted and private members are not
// judged, and `size` is used by an inline body of this header.

namespace mst {

int flagged(int x);
// mstlint: allow-next-line(tests-only-api) -- fixture: a ROADMAP item will call it
int allowed(int x);
int used(int x);
int bench_only(int x);
int overloaded(int x);
int overloaded(int x, int y);
int defaulted(int x, int y = 0);

class Widget {
 public:
  Widget() = default;
  explicit Widget(int size);
  virtual ~Widget() = default;
  Widget(const Widget&) = delete;
  Widget& operator=(const Widget&) = delete;
  bool operator==(const Widget& other) const { return size_ == other.size_; }

  virtual int draw() const;
  int size() const { return size_; }
  int area() const { return size() * 2; }

  template <typename F>
  void each(F&& f) const {
    f(size_);
  }

 private:
  int helper() const { return size_; }  // nothing calls it, but it is private
  int secret() const;
  int size_ = 0;
};

struct Point {
  int x = 0;
  int norm() const { return x; }  // a struct's members are public
};

}  // namespace mst
