#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "mst/common/time.hpp"

/// \file workload.hpp
/// The task set as a first-class value.
///
/// The paper schedules `n` *identical, always-available* tasks, and that
/// assumption used to be baked into every signature in the library
/// (`solve(platform, n)`).  A `Workload` promotes the task set to a value
/// type so that three generalizations land as data instead of new APIs:
///
///  * **non-identical sizes** — task `i` carries a positive integer size
///    `s_i`; it occupies link `k` for `s_i * c_k` and its processor for
///    `s_i * w_k` (uniform scaling of the paper's communication/execution
///    model);
///  * **release dates** — task `i` becomes available at the master at time
///    `r_i >= 0` and must not start its first (master) emission earlier;
///  * **online arrivals** — seeded stochastic arrival processes
///    (`arrival.hpp`) generate release dates deterministically.
///
/// Semantics of release dates for *identical-size* tasks: tasks are
/// interchangeable, so the dates bind positionally — in any schedule, the
/// j-th master emission in time order must start at or after the j-th
/// smallest release date.  For non-uniform sizes, task `i` of the canonical
/// order is the i-th dispatched task.
///
/// Canonical order: the constructor sorts tasks by (release, size), so two
/// workloads describing the same task multiset compare equal, `prefix(k)`
/// is always the k earliest-released tasks, and schedule task `i` maps to
/// workload task `i` in every materialized result.
///
/// `Workload::identical(n)` reproduces the paper's model exactly — every
/// scheduler's behaviour on it is bit-identical to the historical
/// `solve(platform, n)` entry points (asserted by the equivalence suite in
/// tests/test_workload_equivalence.cpp).

namespace mst {

/// Which generalizations a workload actually uses (and, on the algorithm
/// side, which ones an entry can handle — see `api::AlgorithmInfo`).
struct WorkloadFeatures {
  bool sizes = false;    ///< some task size differs from 1
  bool release = false;  ///< some release date is positive
  /// Capability side only (`Workload::features()` never sets it): the entry
  /// can run under the no-lookahead streaming driver (`sim/streaming.hpp`),
  /// where the task count is unknown and tasks are observed one arrival at
  /// a time.  Streaming requests add this to the workload's features, so
  /// the same `subset_of` gate rejects non-streaming entries up front.
  bool streaming = false;

  [[nodiscard]] bool any() const { return sizes || release; }

  /// True iff every feature set here is also set in `caps`.
  [[nodiscard]] bool subset_of(const WorkloadFeatures& caps) const {
    return (!sizes || caps.sizes) && (!release || caps.release) &&
           (!streaming || caps.streaming);
  }

  friend bool operator==(const WorkloadFeatures&, const WorkloadFeatures&) = default;
};

/// Human-readable feature list, e.g. "sizes+release" ("identical" when none).
std::string to_string(const WorkloadFeatures& features);

/// An immutable set of independent tasks: a count plus optional per-task
/// sizes and release dates, kept in canonical (release, size) order.
class Workload {
 public:
  /// Empty workload (no tasks).
  Workload() = default;

  /// The paper's model: `n` identical unit tasks, all available at time 0.
  static Workload identical(std::size_t n);

  /// `release.size()` unit tasks with the given release dates.
  static Workload released(std::vector<Time> release);

  /// General form.  `sizes` / `release` must each be empty (defaulted to 1 /
  /// 0) or hold exactly `count` entries; sizes must be >= 1 and release
  /// dates >= 0.  Throws `std::invalid_argument` otherwise.  Tasks are
  /// sorted into canonical (release, size) order; all-1 sizes and all-0
  /// releases normalize to the empty representation, so
  /// `Workload(n, {}, {}) == Workload::identical(n)`.
  Workload(std::size_t count, std::vector<Time> sizes, std::vector<Time> release);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

  /// Size of task `i` in canonical order (1 when sizes are uniform).
  [[nodiscard]] Time size_of(std::size_t i) const { return sizes_.empty() ? 1 : sizes_[i]; }
  /// Release date of task `i` in canonical order (0 when none are set).
  [[nodiscard]] Time release_of(std::size_t i) const {
    return release_.empty() ? 0 : release_[i];
  }

  [[nodiscard]] bool uniform_sizes() const { return sizes_.empty(); }
  [[nodiscard]] bool has_release_dates() const { return !release_.empty(); }
  [[nodiscard]] WorkloadFeatures features() const {
    return WorkloadFeatures{!sizes_.empty(), !release_.empty()};
  }

  /// Raw vectors (empty in the uniform / all-zero cases).  `releases()` is
  /// always sorted ascending — the positional-release algorithms rely on it.
  [[nodiscard]] const std::vector<Time>& sizes() const { return sizes_; }
  [[nodiscard]] const std::vector<Time>& releases() const { return release_; }

  /// Largest release date (0 for none): the earliest time by which the whole
  /// workload is available.
  [[nodiscard]] Time last_release() const { return release_.empty() ? 0 : release_.back(); }

  /// The first `k <= count()` tasks in canonical order — the k
  /// earliest-released tasks.  This is the probe set of the decision-form
  /// makespan-inversion adapter.
  [[nodiscard]] Workload prefix(std::size_t k) const;

  /// One-line description for tables and errors, e.g.
  /// "workload(8 tasks, sizes 1..4, release 0..21)".
  [[nodiscard]] std::string describe() const;

  friend bool operator==(const Workload&, const Workload&) = default;

 private:
  std::size_t count_ = 0;
  std::vector<Time> sizes_;    ///< empty = all 1
  std::vector<Time> release_;  ///< empty = all 0; sorted ascending otherwise
};

}  // namespace mst
