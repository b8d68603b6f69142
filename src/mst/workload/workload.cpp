#include "mst/workload/workload.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace mst {

std::string to_string(const WorkloadFeatures& features) {
  if (!features.any() && !features.streaming) return "identical";
  std::string out;
  const auto append = [&out](const char* name) {
    if (!out.empty()) out += "+";
    out += name;
  };
  if (features.sizes) append("sizes");
  if (features.release) append("release");
  if (features.streaming) append("streaming");
  return out;
}

Workload Workload::identical(std::size_t n) { return Workload(n, {}, {}); }

Workload Workload::released(std::vector<Time> release) {
  const std::size_t n = release.size();
  return Workload(n, {}, std::move(release));
}

Workload::Workload(std::size_t count, std::vector<Time> sizes, std::vector<Time> release)
    : count_(count), sizes_(std::move(sizes)), release_(std::move(release)) {
  if (!sizes_.empty() && sizes_.size() != count_) {
    throw std::invalid_argument("workload: sizes must be empty or hold one entry per task");
  }
  if (!release_.empty() && release_.size() != count_) {
    throw std::invalid_argument("workload: release must be empty or hold one entry per task");
  }
  for (const Time s : sizes_) {
    if (s < 1) throw std::invalid_argument("workload: task sizes must be >= 1");
  }
  for (const Time r : release_) {
    if (r < 0) throw std::invalid_argument("workload: release dates must be >= 0");
  }

  // Canonicalize: sort tasks by (release, size), then drop degenerate
  // vectors so equal task multisets have equal representations.
  if (!release_.empty()) {
    if (sizes_.empty()) {
      std::sort(release_.begin(), release_.end());
    } else {
      std::vector<std::pair<Time, Time>> tasks(count_);
      for (std::size_t i = 0; i < count_; ++i) tasks[i] = {release_[i], sizes_[i]};
      std::sort(tasks.begin(), tasks.end());
      for (std::size_t i = 0; i < count_; ++i) {
        release_[i] = tasks[i].first;
        sizes_[i] = tasks[i].second;
      }
    }
  } else if (!sizes_.empty()) {
    std::sort(sizes_.begin(), sizes_.end());
  }
  if (std::all_of(sizes_.begin(), sizes_.end(), [](Time s) { return s == 1; })) {
    sizes_.clear();
  }
  if (std::all_of(release_.begin(), release_.end(), [](Time r) { return r == 0; })) {
    release_.clear();
  }
}

Workload Workload::prefix(std::size_t k) const {
  if (k > count_) {
    throw std::invalid_argument("workload: prefix length exceeds the task count");
  }
  std::vector<Time> sizes;
  if (!sizes_.empty()) sizes.assign(sizes_.begin(), sizes_.begin() + static_cast<std::ptrdiff_t>(k));
  std::vector<Time> release;
  if (!release_.empty()) {
    release.assign(release_.begin(), release_.begin() + static_cast<std::ptrdiff_t>(k));
  }
  return Workload(k, std::move(sizes), std::move(release));
}

std::string Workload::describe() const {
  std::ostringstream os;
  os << "workload(" << count_ << (count_ == 1 ? " task" : " tasks");
  if (!sizes_.empty()) {
    os << ", sizes " << *std::min_element(sizes_.begin(), sizes_.end()) << ".."
       << *std::max_element(sizes_.begin(), sizes_.end());
  }
  if (!release_.empty()) os << ", release " << release_.front() << ".." << release_.back();
  os << ")";
  return os.str();
}

}  // namespace mst
