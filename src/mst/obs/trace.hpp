#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mst/common/time.hpp"

/// \file trace.hpp
/// Sim-clock span/instant recording with Chrome trace-event JSON export.
///
/// A `TraceSink` is the machine-readable version of the paper's Figure-2
/// Gantt chart: tracks are slaves and links, spans are their compute and
/// communication busy intervals, instants mark master emissions and task
/// arrivals — all stamped with the *simulated* clock, so a trace is a pure
/// function of (spec, seed) and byte-identical across hosts and thread
/// counts.  The serialized form is the Chrome trace-event format, loadable
/// directly in Perfetto (https://ui.perfetto.dev) or `chrome://tracing`.
///
/// Like the metrics registry, the sink is allocation-free on the hot path:
/// tracks and event names are interned up front into fixed char arrays, and
/// `begin`/`end`/`instant`/`counter` push into storage reserved at
/// construction — when the reservation runs out, events are dropped and
/// counted rather than reallocating inside a linted zero-alloc region.
/// Unlike the registry the sink is single-threaded by design: a
/// trace is an *ordered* artifact, so each simulation records into its own
/// sink (the sweep runner gives every cell one, as it does registries).

namespace mst::obs {

/// Interned handles.  `kInvalidTrack`/`kInvalidName` (also what interning
/// returns once the label table is full) make every subsequent record on
/// that handle a counted no-op.
using TrackId = std::uint32_t;
using NameId = std::uint32_t;
inline constexpr TrackId kInvalidTrack = UINT32_MAX;
inline constexpr NameId kInvalidName = UINT32_MAX;

/// One recorded event.  `phase` uses the Chrome trace-event phase letters:
/// 'B'/'E' span begin/end, 'i' instant, 'C' counter sample.  `arg` is an
/// optional integer payload (task id for spans/instants, sampled value for
/// counters); negative means absent.
struct TraceEvent {
  char phase = 'i';
  TrackId track = kInvalidTrack;
  NameId name = kInvalidName;
  Time ts = 0;
  std::int64_t arg = -1;
};

class TraceSink {
 public:
  static constexpr std::size_t kLabelCapacity = 48;

  explicit TraceSink(std::size_t event_capacity = std::size_t{1} << 16,
                     std::size_t track_capacity = std::size_t{1} << 10,
                     std::size_t name_capacity = std::size_t{1} << 8);
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Interns a track (a row in the rendered Gantt) / an event name.
  /// Idempotent by label; returns the invalid id (counting a drop) when the
  /// table is full or the label does not fit.
  [[nodiscard]] TrackId track(std::string_view label);
  [[nodiscard]] NameId name(std::string_view label);

  // Recording — the hot path.  Reserved-capacity pushes only; a full sink
  // or an invalid handle drops the event and counts it.
  // mstlint: zero-alloc

  void begin(TrackId track, NameId name, Time ts, std::int64_t arg = -1) {
    push({'B', track, name, ts, arg});
  }
  void end(TrackId track, NameId name, Time ts) { push({'E', track, name, ts, -1}); }
  void instant(TrackId track, NameId name, Time ts, std::int64_t arg = -1) {
    push({'i', track, name, ts, arg});
  }
  void counter(TrackId track, NameId name, Time ts, std::int64_t value) {
    push({'C', track, name, ts, value});
  }

  // mstlint: zero-alloc-end

  [[nodiscard]] std::int64_t dropped() const { return dropped_; }

  /// Serializes to Chrome trace-event JSON: a stable sort by timestamp (so
  /// post-hoc pushes, e.g. the streaming walk's backlog samples, land in
  /// order), one metadata record naming each track, then the events with
  /// `pid` 1 and `tid` = track + 1.  `ts` is the raw integer sim clock.
  [[nodiscard]] std::string to_chrome_json() const;

 private:
  struct Label {
    char text[kLabelCapacity] = {};
  };

  [[nodiscard]] std::string_view name_label(NameId name) const;

  void push(const TraceEvent& event) {
    if (event.track == kInvalidTrack || event.name == kInvalidName ||
        events_.size() == events_.capacity()) {
      ++dropped_;
      return;
    }
    events_.push_back(event);
  }

  static std::uint32_t intern_label(std::vector<Label>& table, std::size_t capacity,
                                    std::string_view label, std::int64_t& dropped);

  std::vector<TraceEvent> events_;
  std::vector<Label> tracks_;
  std::vector<Label> names_;
  std::size_t track_capacity_;
  std::size_t name_capacity_;
  std::int64_t dropped_ = 0;
};

}  // namespace mst::obs
