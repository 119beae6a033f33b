// Span tracing for simulated jobs.
//
// When enabled on a JobConfig, every compute charge, MPI call and I/O
// operation is recorded as a (rank, begin, end) span. Alongside spans the
// trace can carry flow events (matched send→recv pairs, drawn as arrows
// between rank rows) and instant events (faults, checkpoint commits). The
// trace exports to the Chrome trace-event JSON format (load in
// chrome://tracing or Perfetto) — one timeline row per rank, which makes
// pipeline stalls, collective synchronisation waves and stragglers directly
// visible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "ipm/ipm.hpp"
#include "sim/time.hpp"

namespace cirrus::ipm {

/// One traced span of a rank's virtual time.
struct TraceEvent {
  enum class Kind : char { Compute = 'c', Mpi = 'm', Io = 'i' };

  int rank = 0;
  sim::SimTime begin = 0;
  sim::SimTime end = 0;
  Kind kind = Kind::Compute;
  CallKind call = CallKind::kCount;  ///< set for Kind::Mpi
  std::size_t bytes = 0;
  int peer = -1;  ///< destination/source rank for p2p; -1 otherwise
};

/// A matched send→recv pair, exported as a Chrome flow arrow from the
/// sender's row at send time to the receiver's row at match time.
struct FlowEvent {
  int src_rank = 0;
  int dst_rank = 0;
  sim::SimTime send_time = 0;
  sim::SimTime recv_time = 0;
  std::size_t bytes = 0;
};

/// A point-in-time marker (fault injection, checkpoint commit, job kill).
struct InstantEvent {
  int rank = -1;  ///< -1: global scope (whole-trace marker)
  sim::SimTime t = 0;
  std::string name;
};

/// An append-only trace of one job, recorded in event order.
///
/// Not thread-safe: one job's engine records into it from one thread. The
/// per-process escaped-name cache inside the JSON writer is a magic static —
/// safe to share across threads.
class Trace {
 public:
  void add(const TraceEvent& ev) {
    events_.push_back(ev);
    rank_index_valid_ = false;
  }
  void add_flow(const FlowEvent& f) { flows_.push_back(f); }
  void add_instant(InstantEvent i) { instants_.push_back(std::move(i)); }

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept { return events_; }
  [[nodiscard]] const std::vector<FlowEvent>& flows() const noexcept { return flows_; }
  [[nodiscard]] const std::vector<InstantEvent>& instants() const noexcept { return instants_; }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }

  /// Chrome trace-event JSON ("X" complete events plus thread-name metadata,
  /// "s"/"f" flow pairs and "i" instants; ts/dur in microseconds; one tid per
  /// rank). Suitable for chrome://tracing and Perfetto.
  [[nodiscard]] std::string to_chrome_json() const;

  /// Streams the trace's event objects (no surrounding brackets) so callers
  /// can append further rows — e.g. obs counter tracks — into one JSON
  /// array. `first` tracks comma placement across writers.
  void write_events(std::ostream& os, bool& first) const;

  /// Events of one rank, in insertion (virtual-time) order. Backed by a
  /// lazily built per-rank index: the first call after an add() pays one
  /// O(events) pass, subsequent calls are O(result).
  [[nodiscard]] std::vector<TraceEvent> for_rank(int rank) const;

 private:
  void build_rank_index() const;

  std::vector<TraceEvent> events_;
  std::vector<FlowEvent> flows_;
  std::vector<InstantEvent> instants_;
  // rank -> indices into events_, rebuilt lazily after mutation.
  mutable std::vector<std::vector<std::uint32_t>> rank_index_;
  mutable bool rank_index_valid_ = false;
};

}  // namespace cirrus::ipm
