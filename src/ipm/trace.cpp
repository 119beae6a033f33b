#include "ipm/trace.hpp"

#include <array>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace cirrus::ipm {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Span names, JSON-escaped exactly once per process instead of per event
/// (the escape pass dominated to_chrome_json for MPI-heavy traces).
const std::string& event_name(const TraceEvent& ev) {
  struct Names {
    std::string compute, io, unknown;
    std::array<std::string, kNumCallKinds> mpi;
    Names() : compute("compute"), io("io"), unknown("?") {
      for (int k = 0; k < kNumCallKinds; ++k) {
        mpi[static_cast<std::size_t>(k)] = json_escape(to_string(static_cast<CallKind>(k)));
      }
    }
  };
  static const Names names;
  switch (ev.kind) {
    case TraceEvent::Kind::Compute: return names.compute;
    case TraceEvent::Kind::Io: return names.io;
    case TraceEvent::Kind::Mpi: {
      const int k = static_cast<int>(ev.call);
      if (k >= 0 && k < kNumCallKinds) return names.mpi[static_cast<std::size_t>(k)];
      return names.unknown;
    }
  }
  return names.unknown;
}

void write_comma(std::ostream& os, bool& first) {
  if (!first) os << ",\n";
  first = false;
}

}  // namespace

void Trace::write_events(std::ostream& os, bool& first) const {
  // Thread-name metadata: one named row per rank that appears in the trace.
  std::vector<char> seen;
  for (const auto& ev : events_) {
    const auto r = static_cast<std::size_t>(ev.rank);
    if (r >= seen.size()) seen.resize(r + 1, 0);
    seen[r] = 1;
  }
  for (std::size_t r = 0; r < seen.size(); ++r) {
    if (seen[r] == 0) continue;
    write_comma(os, first);
    os << R"({"name":"thread_name","ph":"M","pid":0,"tid":)" << r
       << R"(,"args":{"name":"rank )" << r << R"("}})";
  }
  for (const auto& ev : events_) {
    write_comma(os, first);
    // Durations below 1 ns round to 0 us; Chrome handles zero-width spans.
    os << R"({"name":")" << event_name(ev) << R"(","ph":"X","pid":0,"tid":)" << ev.rank
       << R"(,"ts":)" << sim::to_micros(ev.begin) << R"(,"dur":)"
       << sim::to_micros(ev.end - ev.begin) << R"(,"args":{"bytes":)" << ev.bytes
       << R"(,"peer":)" << ev.peer << "}}";
  }
  // Flow arrows: a "s"tart on the sender's row bound to a "f"inish (bp:"e" —
  // bind to the enclosing slice) on the receiver's row, paired by id.
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const FlowEvent& f = flows_[i];
    write_comma(os, first);
    os << R"({"name":"msg","cat":"msg","ph":"s","id":)" << i << R"(,"pid":0,"tid":)"
       << f.src_rank << R"(,"ts":)" << sim::to_micros(f.send_time) << R"(,"args":{"bytes":)"
       << f.bytes << "}}";
    write_comma(os, first);
    os << R"({"name":"msg","cat":"msg","ph":"f","bp":"e","id":)" << i << R"(,"pid":0,"tid":)"
       << f.dst_rank << R"(,"ts":)" << sim::to_micros(f.recv_time) << R"(,"args":{"bytes":)"
       << f.bytes << "}}";
  }
  for (const auto& inst : instants_) {
    write_comma(os, first);
    // Global instants (rank < 0) draw a full-height marker; rank-scoped ones
    // mark a single row.
    if (inst.rank < 0) {
      os << R"({"name":")" << json_escape(inst.name) << R"(","ph":"i","s":"g","pid":0,"tid":0,"ts":)"
         << sim::to_micros(inst.t) << "}";
    } else {
      os << R"({"name":")" << json_escape(inst.name) << R"(","ph":"i","s":"t","pid":0,"tid":)"
         << inst.rank << R"(,"ts":)" << sim::to_micros(inst.t) << "}";
    }
  }
}

std::string Trace::to_chrome_json() const {
  std::ostringstream os;
  os << "[";
  bool first = true;
  write_events(os, first);
  os << "]\n";
  return os.str();
}

void Trace::build_rank_index() const {
  rank_index_.clear();
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const auto r = static_cast<std::size_t>(events_[i].rank);
    if (r >= rank_index_.size()) rank_index_.resize(r + 1);
    rank_index_[r].push_back(static_cast<std::uint32_t>(i));
  }
  rank_index_valid_ = true;
}

std::vector<TraceEvent> Trace::for_rank(int rank) const {
  if (!rank_index_valid_) build_rank_index();
  std::vector<TraceEvent> out;
  if (rank < 0 || static_cast<std::size_t>(rank) >= rank_index_.size()) return out;
  const auto& idx = rank_index_[static_cast<std::size_t>(rank)];
  out.reserve(idx.size());
  for (const std::uint32_t i : idx) out.push_back(events_[i]);
  return out;
}

}  // namespace cirrus::ipm
