#include "mst/scenario/generators.hpp"

#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "mst/common/rng.hpp"

namespace mst::scenario {

api::Platform make_platform(const PlatformSpec& spec, std::uint64_t seed) {
  Rng rng(seed);
  const GeneratorParams params{spec.lo, spec.hi, spec.cls};
  switch (spec.kind) {
    case api::PlatformKind::kChain: return random_chain(rng, spec.size, params);
    case api::PlatformKind::kFork: return random_fork(rng, spec.size, params);
    case api::PlatformKind::kSpider:
      return random_spider(rng, spec.size, spec.min_leg_len, spec.max_leg_len, params);
    case api::PlatformKind::kTree:
      return random_tree(rng, spec.size, params, spec.depth_bias);
  }
  throw std::invalid_argument("make_platform: unknown platform kind");
}

std::uint64_t derive_seed(std::uint64_t root, std::uint64_t a, std::uint64_t b,
                          std::uint64_t c) {
  // Each component advances an independent SplitMix64 step; feeding the
  // running state back in keeps distinct (a, b, c) triples decorrelated.
  Rng rng(root ^ (a * 0x9E3779B97F4A7C15ull));
  std::uint64_t state = rng.next_u64();
  state ^= Rng(state ^ (b * 0xBF58476D1CE4E5B9ull)).next_u64();
  state ^= Rng(state ^ (c * 0x94D049BB133111EBull)).next_u64();
  return state;
}

std::string to_string(CellMode mode) {
  switch (mode) {
    case CellMode::kSolve: return "solve";
    case CellMode::kWithin: return "within";
    case CellMode::kStream: return "stream";
  }
  return "?";
}

namespace {

/// The algorithms a platform kind contributes to the sweep.
std::vector<std::string> algorithms_for(const SweepSpec& spec, api::PlatformKind kind,
                                        const api::Registry& registry) {
  std::vector<std::string> names;
  if (spec.algorithms.empty()) {
    for (const api::AlgorithmInfo& info : registry.list(kind)) {
      // Exponential oracles would hang on sweep-sized grids; specs must name
      // them explicitly to include them.
      if (!info.exponential) names.push_back(info.name);
    }
  } else {
    for (const std::string& name : spec.algorithms) {
      if (registry.info(kind, name) != nullptr) names.push_back(name);
    }
  }
  return names;
}

/// The workload axis: the spec's generators, or the single identical point.
const std::vector<WorkloadGen>& workload_axis(const SweepSpec& spec) {
  static const std::vector<WorkloadGen> kIdentical{WorkloadGen{}};
  return spec.workloads.empty() ? kIdentical : spec.workloads;
}

/// The most cells one platform expands to per algorithm: every work-axis
/// point of every workload generator.
std::size_t cells_per_algorithm(const SweepSpec& spec) {
  std::size_t cells = 0;
  for (const WorkloadGen& gen : workload_axis(spec)) {
    cells += spec.tasks.size() + spec.deadlines.size() * (gen.identical() ? 1 : spec.tasks.size());
    if (spec.stream) cells += spec.tasks.size();
  }
  return cells;
}

/// Appends one platform's cells (its kind's `algorithms` × workload axis ×
/// work-axis points), all sharing one immutable platform instance.
/// Workloads are generated once per (generator, n) and shared across the
/// platform's algorithms.
void append_platform_cells(const SweepSpec& spec, const api::Registry& registry,
                           const std::vector<std::string>& algorithms,
                           std::shared_ptr<const api::Platform> platform,
                           const std::string& cls_label, std::size_t size,
                           std::size_t instance, std::uint64_t platform_seed,
                           std::vector<Cell>& out) {
  const api::PlatformKind kind = api::kind_of(*platform);
  const std::vector<WorkloadGen>& gens = workload_axis(spec);

  // (generator index, n) → (seed, workload), shared across algorithms.
  struct GeneratedWorkload {
    std::uint64_t seed = 0;
    std::shared_ptr<const Workload> workload;
  };
  std::map<std::pair<std::size_t, std::size_t>, GeneratedWorkload> workloads;
  const auto workload_for = [&](std::size_t gen_index,
                                std::size_t n) -> const GeneratedWorkload& {
    GeneratedWorkload& entry = workloads[std::make_pair(gen_index, n)];
    if (entry.workload == nullptr) {
      entry.seed = derive_seed(spec.seed, 0x3A5C10ADull + gen_index, platform_seed, n);
      entry.workload = std::make_shared<const Workload>(gens[gen_index].make(n, entry.seed));
    }
    return entry;
  };

  for (const std::string& algorithm : algorithms) {
    auto push = [&](CellMode mode, std::size_t n, Time deadline, std::size_t gen_index) {
      Cell cell;
      cell.index = out.size();
      cell.spec_name = spec.name;
      cell.platform = platform;
      cell.kind = to_string(kind);
      cell.cls = cls_label;
      cell.size = size;
      cell.instance = instance;
      cell.platform_seed = platform_seed;
      cell.algorithm = algorithm;
      cell.mode = mode;
      cell.n = n;
      cell.deadline = deadline;
      cell.seed = derive_seed(spec.seed, /*a=*/0x5EEDCE11ull, platform_seed, out.size());
      if (!gens[gen_index].identical()) {
        const GeneratedWorkload& generated = workload_for(gen_index, n);
        cell.workload = generated.workload;
        cell.workload_label = gens[gen_index].label();
        cell.workload_seed = generated.seed;
      }
      out.push_back(std::move(cell));
    };
    // Cells only exist for (algorithm, generator) pairs the registry would
    // accept — the capability gate at expansion instead of a guaranteed
    // per-cell failure at run time.
    const auto paired = [&](std::size_t gen_index) {
      return gens[gen_index].identical() ||
             registry.supports(kind, algorithm, gens[gen_index].features());
    };
    for (std::size_t g = 0; g < gens.size(); ++g) {
      if (!paired(g)) continue;
      for (std::size_t n : spec.tasks) push(CellMode::kSolve, n, 0, g);
    }
    for (std::size_t g = 0; g < gens.size(); ++g) {
      if (!paired(g)) continue;
      for (Time deadline : spec.deadlines) {
        if (gens[g].identical()) {
          // Historical semantics: the unbounded identical stream.
          push(CellMode::kWithin, 0, deadline, g);
        } else {
          // Finite pools need a size: cross with the tasks axis.
          for (std::size_t n : spec.tasks) push(CellMode::kWithin, n, deadline, g);
        }
      }
    }
    if (spec.stream) {
      // Streaming cells request the streaming capability on top of the
      // generator's features — identical generators included, since most
      // entries cannot run without knowing `n`.
      const auto stream_paired = [&](std::size_t gen_index) {
        WorkloadFeatures features = gens[gen_index].features();
        features.streaming = true;
        return registry.supports(kind, algorithm, features);
      };
      for (std::size_t g = 0; g < gens.size(); ++g) {
        if (!stream_paired(g)) continue;
        for (std::size_t n : spec.tasks) push(CellMode::kStream, n, 0, g);
      }
    }
  }
}

}  // namespace

std::vector<Cell> expand(const SweepSpec& spec, const api::Registry& registry) {
  if (spec.kinds.empty() && spec.platforms.empty()) {
    throw std::invalid_argument("spec '" + spec.name +
                                "': needs 'kinds' (a generator grid) or a 'platform' block");
  }
  if (!spec.kinds.empty() && spec.sizes.empty()) {
    throw std::invalid_argument("spec '" + spec.name + "': a generator grid needs 'sizes'");
  }
  if (!spec.kinds.empty() && spec.classes.empty()) {
    throw std::invalid_argument("spec '" + spec.name + "': a generator grid needs 'classes'");
  }
  if (spec.tasks.empty() && spec.deadlines.empty()) {
    throw std::invalid_argument("spec '" + spec.name + "': needs 'tasks' or 'deadlines'");
  }
  if (spec.stream && spec.tasks.empty()) {
    throw std::invalid_argument("spec '" + spec.name +
                                "': 'stream' cells draw their task count from 'tasks'");
  }
  if (spec.min_leg_len < 1 || spec.min_leg_len > spec.max_leg_len) {
    throw std::invalid_argument("spec '" + spec.name + "': need 1 <= leg-len min <= max");
  }
  if (!spec.kinds.empty() && (spec.lo < 1 || spec.hi < spec.lo)) {
    throw std::invalid_argument("spec '" + spec.name + "': need 1 <= times lo <= hi");
  }
  if (spec.depth_bias < 0.0 || spec.depth_bias > 1.0) {
    throw std::invalid_argument("spec '" + spec.name + "': depth-bias must be in [0, 1]");
  }
  if (!spec.algorithms.empty()) {
    // A name that matches no swept kind is a typo, not a filter.
    for (const std::string& name : spec.algorithms) {
      bool known = false;
      for (api::PlatformKind kind : spec.kinds) {
        known = known || registry.info(kind, name) != nullptr;
      }
      for (const api::Platform& platform : spec.platforms) {
        known = known || registry.info(api::kind_of(platform), name) != nullptr;
      }
      if (!known) {
        throw std::invalid_argument("spec '" + spec.name + "': algorithm '" + name +
                                    "' is not registered for any swept platform kind");
      }
    }
  }
  for (const WorkloadGen& gen : spec.workloads) {
    try {
      validate(gen);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("spec '" + spec.name + "': " + e.what());
    }
    if (!gen.identical() && !spec.deadlines.empty() && spec.tasks.empty()) {
      throw std::invalid_argument("spec '" + spec.name +
                                  "': a non-identical workload axis with 'deadlines' needs "
                                  "'tasks' (the finite pool size)");
    }
  }

  // Each kind's algorithms, resolved once; the grid's size bounds the
  // reservation, so the cells are never moved by a reallocation.
  std::vector<std::vector<std::string>> algorithms(all_platform_kinds().size());
  for (api::PlatformKind kind : all_platform_kinds()) {
    algorithms[static_cast<std::size_t>(kind)] = algorithms_for(spec, kind, registry);
  }
  std::size_t platform_cells = 0;
  for (const api::Platform& platform : spec.platforms) {
    platform_cells += algorithms[static_cast<std::size_t>(api::kind_of(platform))].size();
  }
  for (api::PlatformKind kind : spec.kinds) {
    platform_cells += spec.classes.size() * spec.sizes.size() * spec.instances *
                      algorithms[static_cast<std::size_t>(kind)].size();
  }
  std::vector<Cell> cells;
  cells.reserve(platform_cells * cells_per_algorithm(spec));
  for (std::size_t i = 0; i < spec.platforms.size(); ++i) {
    auto platform = std::make_shared<const api::Platform>(spec.platforms[i]);
    const std::size_t size = api::num_processors(*platform);
    const api::PlatformKind kind = api::kind_of(*platform);
    append_platform_cells(spec, registry, algorithms[static_cast<std::size_t>(kind)],
                          std::move(platform), "-", size, /*instance=*/i, /*platform_seed=*/0,
                          cells);
  }
  for (api::PlatformKind kind : spec.kinds) {
    for (PlatformClass cls : spec.classes) {
      for (std::size_t size : spec.sizes) {
        for (std::size_t instance = 0; instance < spec.instances; ++instance) {
          PlatformSpec pspec;
          pspec.kind = kind;
          pspec.cls = cls;
          pspec.size = size;
          pspec.lo = spec.lo;
          pspec.hi = spec.hi;
          pspec.min_leg_len = spec.min_leg_len;
          pspec.max_leg_len = spec.max_leg_len;
          pspec.depth_bias = spec.depth_bias;
          const std::uint64_t platform_seed =
              derive_seed(spec.seed,
                          (static_cast<std::uint64_t>(kind) << 8) |
                              static_cast<std::uint64_t>(cls),
                          size, instance);
          append_platform_cells(
              spec, registry, algorithms[static_cast<std::size_t>(kind)],
              std::make_shared<const api::Platform>(make_platform(pspec, platform_seed)),
              to_string(cls), size, instance, platform_seed, cells);
        }
      }
    }
  }
  return cells;
}

}  // namespace mst::scenario
