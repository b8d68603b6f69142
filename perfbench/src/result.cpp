#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#ifndef MSTBENCH_BUILD_TYPE
#define MSTBENCH_BUILD_TYPE "unknown"
#endif

namespace mstbench {

namespace {

/// What a result was measured on.  Results of different hosts are compared
/// with a warning only (`run.py --compare`).
struct Host {
  unsigned cores = 0;
  std::string cpu;
  std::string compiler;
  std::string build = MSTBENCH_BUILD_TYPE;
};

/// The processor brand string, read with CPUID (no file access).
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000U, nullptr) < 0x80000004U) return "unknown";
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002U + leaf, &regs[4 * leaf], &regs[4 * leaf + 1], &regs[4 * leaf + 2],
                &regs[4 * leaf + 3]);
  }
  char text[sizeof regs + 1] = {};
  std::memcpy(text, regs, sizeof regs);
  std::string model = text;
  while (!model.empty() && model.back() == ' ') model.pop_back();
  const std::size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

Host host() {
  Host h;
  h.cores = std::thread::hardware_concurrency();
  h.cpu = cpu_model();
#if defined(__clang__)
  h.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  h.compiler = "gcc " __VERSION__;
#else
  h.compiler = "unknown";
#endif
  return h;
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char text[32];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

}  // namespace

void emit(const Options& options, bool traced, const Result& result) {
  const Host h = host();
  std::cout << "workload " << options.workload << "  seed " << options.seed << "  "
            << (traced ? "traced per-layer run (1 thread)" : "end-to-end run (4 threads)")
            << "\n";
  std::cout << "host: cores=" << h.cores << " cpu=\"" << h.cpu << "\" compiler=\"" << h.compiler
            << "\" build=" << h.build << "\n";
  char line[256];
  std::snprintf(line, sizeof line, "%-24s %14s %14s %14s %8s  %s\n", "metric", "median", "q1",
                "q3", "samples", "unit");
  std::cout << line;
  for (const Metric& m : result.metrics) {
    std::snprintf(line, sizeof line, "%-24s %14.6g %14.6g %14.6g %8zu  %s\n", m.name.c_str(),
                  m.value, m.q1, m.q3, m.samples, m.unit.c_str());
    std::cout << line;
  }
  const double fail_ratio = result.attempted == 0 ? 0.0
                                                  : static_cast<double>(result.failed) /
                                                        static_cast<double>(result.attempted);
  std::cout << "fail_ratio " << number(fail_ratio) << " ratio (" << result.failed << " of "
            << result.attempted << " cells and output checks)\n";
  for (const std::string& problem : result.problems) std::cout << "FAILED: " << problem << "\n";
  std::cout << "csv digest " << result.csv_digest << "\n";

  std::string metrics;
  std::string detailed;
  for (const Metric& m : result.metrics) {
    const std::string sep = metrics.empty() ? "" : ", ";
    metrics += sep + quoted(m.name) + ": {\"value\": " + number(m.value) +
               ", \"unit\": " + quoted(m.unit) + "}";
    detailed += sep + quoted(m.name) + ": {\"value\": " + number(m.value) +
                ", \"unit\": " + quoted(m.unit) + ", \"q1\": " + number(m.q1) +
                ", \"q3\": " + number(m.q3) + ", \"samples\": " + std::to_string(m.samples) + "}";
  }
  const std::string verdict = std::string("\"correct\": ") +
                              (result.correct() ? "true" : "false") +
                              ", \"attempted\": " + std::to_string(result.attempted) +
                              ", \"failed\": " + std::to_string(result.failed);

  if (!options.report_path.empty()) {
    std::ofstream report(options.report_path, std::ios::binary);
    report << "{\"workload\": " << quoted(options.workload) << ", \"seed\": " << options.seed
           << ", \"trace\": " << (traced ? 1 : 0) << ",\n \"host\": {\"cores\": " << h.cores
           << ", \"cpu\": " << quoted(h.cpu) << ", \"compiler\": " << quoted(h.compiler)
           << ", \"build\": " << quoted(h.build) << "},\n " << verdict
           << ", \"fail_ratio\": " << number(fail_ratio)
           << ", \"csv_digest\": " << quoted(result.csv_digest) << ",\n \"metrics\": {"
           << detailed << "}}\n";
    if (!report) std::cerr << "mstbench: cannot write report " << options.report_path << "\n";
  }
  std::cout << "{" << verdict << ", \"metrics\": {" << metrics << "}}" << std::endl;
}

}  // namespace mstbench
