#include "obs/chrome_trace.hpp"

#include <cinttypes>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "common/atomic_file.hpp"

namespace entk::obs {
namespace {

std::string json_escape(const char* text) {
  std::string escaped;
  for (const char* p = text; *p != '\0'; ++p) {
    const char c = *p;
    switch (c) {
      case '"':
        escaped += "\\\"";
        break;
      case '\\':
        escaped += "\\\\";
        break;
      case '\n':
        escaped += "\\n";
        break;
      case '\t':
        escaped += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          escaped += buffer;
        } else {
          escaped += c;
        }
    }
  }
  return escaped;
}

std::string format_ts(TimePoint seconds) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", seconds * 1e6);
  return buffer;
}

std::string format_id(std::uint64_t flow_id) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "\"0x%" PRIx64 "\"", flow_id);
  return buffer;
}

void append_common(std::ostringstream& out, const TraceEvent& event) {
  out << "\"cat\":\"" << json_escape(event.category) << "\",\"name\":\""
      << json_escape(event.name) << "\",\"pid\":" << event.pilot
      << ",\"tid\":" << event.thread
      << ",\"ts\":" << format_ts(event.time);
}

/// Closes a begin or instant event, naming its session in `args` so a
/// span can be traced back to the workload that ran it. `labels`
/// caches the session names.
void close_with_session(std::ostringstream& out, const TraceEvent& event,
                        std::map<std::uint32_t, std::string>& labels) {
  if (event.session != 0) {
    auto it = labels.find(event.session);
    if (it == labels.end()) {
      it = labels.emplace(event.session, session_label(event.session)).first;
    }
    if (!it->second.empty()) {
      out << ",\"args\":{\"session\":\"" << json_escape(it->second.c_str())
          << "\"}";
    }
  }
  out << "}";
}

}  // namespace

std::string to_chrome_trace(const std::vector<TraceEvent>& events) {
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const char* separator = "\n";

  // Metadata: name the processes and threads that appear.
  std::set<std::uint32_t> pilots;
  std::set<std::pair<std::uint32_t, std::uint32_t>> threads;
  for (const TraceEvent& event : events) {
    pilots.insert(event.pilot);
    threads.insert({event.pilot, event.thread});
  }
  for (const std::uint32_t pilot : pilots) {
    out << separator
        << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pilot
        << ",\"tid\":0,\"args\":{\"name\":\""
        << (pilot == 0 ? std::string("entk client")
                       : "pilot-" + std::to_string(pilot))
        << "\"}}";
    separator = ",\n";
  }
  for (const auto& [pilot, thread] : threads) {
    out << separator
        << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << pilot
        << ",\"tid\":" << thread << ",\"args\":{\"name\":\"thread-"
        << thread << "\"}}";
    separator = ",\n";
  }

  std::set<std::uint64_t> seen_flows;
  std::map<std::uint32_t, std::string> labels;
  for (const TraceEvent& event : events) {
    out << separator;
    separator = ",\n";
    switch (event.kind) {
      case TraceKind::kSpanBegin:
      case TraceKind::kSpanEnd: {
        const bool begin = event.kind == TraceKind::kSpanBegin;
        if (event.flow_id != 0) {
          // Async nestable pair: units overlap in virtual time, so
          // they live on per-flow async tracks, not the thread stack.
          out << "{\"ph\":\"" << (begin ? 'b' : 'e') << "\",";
          append_common(out, event);
          out << ",\"id\":" << format_id(event.flow_id);
        } else {
          out << "{\"ph\":\"" << (begin ? 'B' : 'E') << "\",";
          append_common(out, event);
        }
        if (begin) {
          close_with_session(out, event, labels);
        } else {
          out << "}";
        }
        break;
      }
      case TraceKind::kInstant:
        out << "{\"ph\":\"i\",\"s\":\"t\",";
        append_common(out, event);
        close_with_session(out, event, labels);
        break;
      case TraceKind::kCounter:
        out << "{\"ph\":\"C\",";
        append_common(out, event);
        out << ",\"args\":{\"value\":" << event.value << "}}";
        break;
    }
    if (event.flow_id != 0 && event.kind != TraceKind::kCounter) {
      // Stitch this unit's events into one flow arrow chain.
      const bool first = seen_flows.insert(event.flow_id).second;
      out << separator << "{\"ph\":\"" << (first ? 's' : 't') << "\",";
      append_common(out, event);
      out << ",\"id\":" << format_id(event.flow_id) << "}";
    }
  }
  out << "\n]}\n";
  return out.str();
}

Status write_chrome_trace(const std::string& path,
                          const std::vector<TraceEvent>& events) {
  return write_file_atomic(path, to_chrome_trace(events));
}

}  // namespace entk::obs
