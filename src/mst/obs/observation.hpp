#pragma once

/// \file observation.hpp
/// The pass-through handle the instrumented layers accept.
///
/// Every instrumented entry point (`sim::simulate_dispatch`,
/// `sim::simulate_stream`, `api::run_stream`, ...) takes a defaulted
/// `const obs::Observation& = {}`: both pointers null means observability
/// is off and the instrumentation collapses to null checks.  The
/// simulator's event loop records into the sinks as events fire — event
/// counts and queue gauges, the Gantt spans and instants — so what it
/// reports follows the order of same-instant events.  A stream run, timed
/// on the forward ASAP engine, is replayed through that loop when observed.
/// Header-only with forward declarations so including a low-layer header
/// never pays for the metrics/trace definitions.

namespace mst::obs {

class MetricsRegistry;
class TraceSink;

/// Borrowed, optional sinks.  The caller owns both and keeps them alive for
/// the duration of the observed call.
struct Observation {
  MetricsRegistry* metrics = nullptr;
  TraceSink* trace = nullptr;

  [[nodiscard]] bool enabled() const { return metrics != nullptr || trace != nullptr; }
};

}  // namespace mst::obs
