// Causal virtual-time spans.
//
// A Span is a closed [begin, end] interval of one track's virtual time with
// a category ("storage.queue", "mpi.collective", "wf.task", ...), an optional
// free-form label, and a parent link forming a per-track tree. Span ids are
// per-track ordinals assigned in recording order: a rank's spans are recorded
// by its own fiber in virtual-time program order, so ids — and therefore the
// whole serialized tree — are byte-identical for any `--jobs` sweep
// parallelism.
//
// Recording follows the MetricsRegistry nullable-handle idiom: a
// default-constructed SpanRecorder is inert, every call on it compiles to a
// null check, and instrumented code never branches on "is tracing on".
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace cirrus::obs {

/// One recorded interval. (track, id) is unique within a SpanSet;
/// parent == 0 means a root span of its track.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  int track = 0;  ///< rank
  sim::SimTime begin = 0;
  sim::SimTime end = 0;
  std::string category;
  std::string label;
};

/// Append-only collection of spans, in recording order. Not thread-safe.
class SpanSet {
 public:
  void add(Span s) { spans_.push_back(std::move(s)); }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  [[nodiscard]] bool empty() const noexcept { return spans_.empty(); }

  /// Spans of one track, in id order.
  [[nodiscard]] std::vector<Span> for_track(int track) const;

  /// Streams Chrome trace-event "X" rows (no brackets) so callers can merge
  /// span rows into a larger JSON event array. `first` tracks comma
  /// placement across writers. ts/dur in microseconds, tid = track.
  void write_chrome_events(std::ostream& os, bool& first) const;

 private:
  friend class SpanRecorder;  // patches `end` into open spans in place

  std::vector<Span> spans_;
};

/// Per-track recording handle. Null (default-constructed) recorders are
/// no-ops: begin() returns 0, end()/record() do nothing — the zero-cost
/// disabled idiom of obs::Counter/Histogram.
class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(SpanSet* set, int track) : set_(set), track_(track) {}

  [[nodiscard]] bool enabled() const noexcept { return set_ != nullptr; }
  [[nodiscard]] int track() const noexcept { return track_; }

  /// Opens a span at `t`; returns its id (0 when disabled). The span nests
  /// under the innermost still-open span of this recorder.
  std::uint32_t begin(sim::SimTime t, std::string_view category, std::string label = {});

  /// Closes the open span `id` at `t`. Children still open are closed at the
  /// same instant (LIFO discipline; out-of-order ends close the stack down
  /// to and including `id`). Unknown/zero ids are ignored.
  void end(std::uint32_t id, sim::SimTime t);

  /// Records an already-closed span [b, e] nested under the innermost open
  /// span; returns its id (0 when disabled).
  std::uint32_t record(sim::SimTime b, sim::SimTime e, std::string_view category,
                       std::string label = {});

 private:
  struct Open {
    std::uint32_t id = 0;
    std::size_t index = 0;  ///< position in set_->spans_ to patch `end` into
  };

  SpanSet* set_ = nullptr;
  int track_ = 0;
  std::uint32_t seq_ = 0;     ///< per-track ordinal id source
  std::vector<Open> stack_;   ///< open-span stack (parent linkage)
};

}  // namespace cirrus::obs
