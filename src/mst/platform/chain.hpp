#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "mst/common/time.hpp"
#include "mst/platform/processor.hpp"

/// \file chain.hpp
/// Chain platform (Fig 1 of the paper): a master feeding a line of slaves.

namespace mst {

/// A chain of heterogeneous processors.
///
/// The master (task source) sits in front of processor 0; a task destined to
/// processor `k` is relayed over links `0..k`, paying latency `comm(j)` on
/// each and obeying the one-port rule on every link.  Processor indices are
/// 0-based in code; the paper numbers them 1..p.
class Chain {
 public:
  Chain() = default;

  /// Build from explicit processors.  Throws if empty or if any processor is
  /// invalid (negative latency, non-positive work).
  explicit Chain(std::vector<Processor> procs);
  Chain(std::initializer_list<Processor> procs);

  /// Rebuild from `procs` in place, validated as by the constructor; the
  /// processor buffer is reused, so a warm chain takes as many processors
  /// again without allocating.
  void assign(std::span<const Processor> procs);

  /// Build from parallel `(c_i)` / `(w_i)` vectors, paper-style.
  static Chain from_vectors(const std::vector<Time>& comms, const std::vector<Time>& works);

  [[nodiscard]] std::size_t size() const { return procs_.size(); }
  [[nodiscard]] bool empty() const { return procs_.empty(); }

  [[nodiscard]] const Processor& proc(std::size_t i) const;
  [[nodiscard]] Time comm(std::size_t i) const { return proc(i).comm; }
  [[nodiscard]] Time work(std::size_t i) const { return proc(i).work; }

  [[nodiscard]] const std::vector<Processor>& procs() const { return procs_; }

  /// `T∞` of the paper's §3: the makespan of the trivial schedule that puts
  /// all `n` tasks on the first processor,
  /// `c_0 + (n-1)·max(w_0, c_0) + w_0`.  Defined for `n >= 1`; throws
  /// `std::invalid_argument` when it exceeds the largest `Time`.
  [[nodiscard]] Time t_infinity(std::size_t n) const;

  /// Human-readable one-liner, e.g. `chain[(c=2,w=5),(c=3,w=3)]`.
  [[nodiscard]] std::string describe() const;

  friend bool operator==(const Chain&, const Chain&) = default;

 private:
  std::vector<Processor> procs_;
};

}  // namespace mst
