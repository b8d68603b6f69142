#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <variant>

#include "mst/api/platform_io.hpp"
#include "mst/common/fmt.hpp"
#include "mst/platform/io.hpp"
#include "mst/scenario/spec.hpp"

/// \file spec_writer.hpp
/// Test oracles: the canonical text of a fork, of a platform of any kind,
/// which `api::parse_any_platform` must read back exactly, and of a
/// `SweepSpec`, which `scenario::parse_spec` must read back exactly.  The
/// tests round-trip through them; the library itself only parses these
/// (it writes chains, spiders and trees, which schedule files and
/// `mstctl --mode=demo` embed).

namespace mst::oracle {

/// `fork <p>` then one `c w` line per slave (`mst/platform/io.hpp`).
inline std::string write_fork(const Fork& fork) {
  std::ostringstream os;
  os << "fork " << fork.size() << '\n';
  for (const Processor& slave : fork.slaves()) os << slave.comm << ' ' << slave.work << '\n';
  return os.str();
}

/// The platform's text in the format of `mst/platform/io.hpp`.
inline std::string write_platform(const api::Platform& platform) {
  if (const auto* chain = std::get_if<Chain>(&platform)) return write_chain(*chain);
  if (const auto* fork = std::get_if<Fork>(&platform)) return write_fork(*fork);
  if (const auto* spider = std::get_if<Spider>(&platform)) return write_spider(*spider);
  return write_tree(std::get<Tree>(platform));
}

/// Canonical rendering; throws `std::invalid_argument` for a spec the text
/// format cannot express (a name that is not one token, a combined
/// size+arrival workload generator).
inline std::string write_spec(const scenario::SweepSpec& spec) {
  // Names are single tokens in the text format; refuse to serialize a spec
  // the parser could not read back (whitespace splits the token, '#' starts
  // a comment).
  if (spec.name.empty() ||
      spec.name.find_first_of(" \t\r\n#") != std::string::npos) {
    throw std::invalid_argument("write_spec: spec name '" + spec.name +
                                "' must be a nonempty token without whitespace or '#'");
  }
  std::ostringstream os;
  os << "sweep " << spec.name << '\n';
  os << "seed " << spec.seed << '\n';
  os << "kinds";
  for (api::PlatformKind kind : spec.kinds) os << ' ' << to_string(kind);
  os << '\n';
  os << "classes";
  for (PlatformClass cls : spec.classes) os << ' ' << to_string(cls);
  os << '\n';
  os << "sizes";
  for (std::size_t size : spec.sizes) os << ' ' << size;
  os << '\n';
  os << "instances " << spec.instances << '\n';
  os << "times " << spec.lo << ' ' << spec.hi << '\n';
  os << "leg-len " << spec.min_leg_len << ' ' << spec.max_leg_len << '\n';
  os << "depth-bias " << format_double(spec.depth_bias) << '\n';
  os << "tasks";
  for (std::size_t n : spec.tasks) os << ' ' << n;
  os << '\n';
  os << "deadlines";
  for (Time deadline : spec.deadlines) os << ' ' << deadline;
  os << '\n';
  if (spec.stream) os << "stream\n";
  for (const WorkloadGen& gen : spec.workloads) {
    // The text format keeps the axes orthogonal: one `tasks.*` line per
    // generator.  A combined sizes+arrival generator (constructible in
    // code) has no line form, so refuse to emit a spec the parser could
    // not read back.
    if (gen.sizes.kind != SizeDist::Kind::kUnit &&
        gen.arrival.kind != ArrivalDist::Kind::kNone) {
      throw std::invalid_argument(
          "write_spec: combined size+arrival workload generators have no text form");
    }
    switch (gen.arrival.kind) {
      case ArrivalDist::Kind::kNone:
        switch (gen.sizes.kind) {
          case SizeDist::Kind::kUnit: os << "tasks.sizes unit\n"; break;
          case SizeDist::Kind::kFixed: os << "tasks.sizes fixed " << gen.sizes.a << '\n'; break;
          case SizeDist::Kind::kUniform:
            os << "tasks.sizes uniform " << gen.sizes.a << ' ' << gen.sizes.b << '\n';
            break;
        }
        break;
      case ArrivalDist::Kind::kPeriodic:
        os << "tasks.release periodic " << gen.arrival.a << '\n';
        break;
      case ArrivalDist::Kind::kJitter:
        os << "tasks.release jitter " << gen.arrival.a << ' ' << gen.arrival.b << '\n';
        break;
      case ArrivalDist::Kind::kPoisson:
        os << "tasks.arrival poisson " << gen.arrival.a << '\n';
        break;
      case ArrivalDist::Kind::kBursts:
        os << "tasks.arrival bursts " << gen.arrival.a << ' ' << gen.arrival.b << '\n';
        break;
    }
  }
  os << "algos";
  for (const std::string& name : spec.algorithms) os << ' ' << name;
  os << '\n';
  for (const api::Platform& platform : spec.platforms) {
    os << "platform\n" << write_platform(platform) << "end\n";
  }
  os << "end\n";
  return os.str();
}

}  // namespace mst::oracle
