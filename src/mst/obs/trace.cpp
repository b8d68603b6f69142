#include "mst/obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace mst::obs {

namespace {

/// Escapes a label for embedding in a JSON string.  Labels are interned
/// ASCII identifiers in practice, but the serializer must not depend on
/// that.
void append_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

TraceSink::TraceSink(std::size_t event_capacity, std::size_t track_capacity,
                     std::size_t name_capacity)
    : track_capacity_(track_capacity), name_capacity_(name_capacity) {
  events_.reserve(event_capacity);
  tracks_.reserve(track_capacity);
  names_.reserve(name_capacity);
}

std::uint32_t TraceSink::intern_label(std::vector<Label>& table, std::size_t capacity,
                                      std::string_view label, std::int64_t& dropped) {
  if (label.empty() || label.size() >= kLabelCapacity) {
    ++dropped;
    return UINT32_MAX;
  }
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (std::string_view(table[i].text) == label) return static_cast<std::uint32_t>(i);
  }
  if (table.size() == capacity) {
    ++dropped;
    return UINT32_MAX;
  }
  Label entry;
  std::memcpy(entry.text, label.data(), label.size());
  entry.text[label.size()] = '\0';
  table.push_back(entry);
  return static_cast<std::uint32_t>(table.size() - 1);
}

TrackId TraceSink::track(std::string_view label) {
  return intern_label(tracks_, track_capacity_, label, dropped_);
}

NameId TraceSink::name(std::string_view label) {
  return intern_label(names_, name_capacity_, label, dropped_);
}

std::string_view TraceSink::name_label(NameId name) const {
  return name < names_.size() ? std::string_view(names_[name].text) : std::string_view();
}

std::string TraceSink::to_chrome_json() const {
  // Chrome's importer tolerates out-of-order events, Perfetto's is stricter;
  // a stable sort by timestamp guarantees monotone `ts` while preserving the
  // recording order of same-time events (begin-before-end pairing at
  // zero-length spans).
  std::vector<TraceEvent> ordered = events_;
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.ts < b.ts; });

  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  const auto separator = [&] {
    out += first ? "\n" : ",\n";
    first = false;
  };

  // One metadata record per track so Perfetto shows the label instead of a
  // bare tid.  All events share pid 1; tid is track + 1 (tid 0 renders as
  // the process row in some viewers).
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    separator();
    out += "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": " +
           std::to_string(i + 1) + ", \"args\": {\"name\": \"";
    append_escaped(out, std::string_view(tracks_[i].text));
    out += "\"}}";
  }

  for (const TraceEvent& event : ordered) {
    separator();
    out += "  {\"name\": \"";
    append_escaped(out, name_label(event.name));
    out += "\", \"ph\": \"";
    out += event.phase;
    out += "\", \"pid\": 1, \"tid\": " + std::to_string(event.track + 1) +
           ", \"ts\": " + std::to_string(event.ts);
    if (event.phase == 'i') {
      out += ", \"s\": \"t\"";
    }
    if (event.phase == 'C') {
      out += ", \"args\": {\"value\": " + std::to_string(event.arg) + "}";
    } else if (event.arg >= 0) {
      out += ", \"args\": {\"task\": " + std::to_string(event.arg) + "}";
    }
    out += "}";
  }

  out += first ? "]}\n" : "\n]}\n";
  return out;
}

}  // namespace mst::obs
