// The trace of a simulated job: one record type for everything it times.
//
// A SpanSet holds, in recording order:
//  * intervals — each compute charge, MPI call and I/O operation of a rank,
//    the same event stream IPM books its totals from;
//  * causal spans — closed [begin, end] intervals with a per-track parent
//    tree (storage.queue / storage.service, wf.task stages);
//  * instants — zero-width markers (faults, checkpoint commits, task starts);
//  * flows — matched send→recv links, kept beside the spans as compact pairs.
//
// Span is a fixed 48-byte record: categories and labels are interned per set,
// and the MPI call names sit at fixed category ids (mpi_category), so readers
// recover the ipm::CallKind without comparing strings. Causal span ids are
// per-track ordinals assigned in recording order: a rank's spans are recorded
// by its own fiber in virtual-time program order, so ids — and the whole
// serialized trace — are byte-identical for any `--jobs` sweep parallelism.
//
// Recording follows the MetricsRegistry nullable-handle idiom: a
// default-constructed SpanRecorder is inert, every call on it compiles to a
// null check, and instrumented code never branches on "is tracing on".
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ipm/ipm.hpp"
#include "sim/time.hpp"

namespace cirrus::obs {

enum class SpanKind : std::uint8_t { Interval, Causal, Instant };

/// Category ids every SpanSet interns up front, in this order: compute, io,
/// then one per MPI call kind (named by ipm::to_string).
inline constexpr std::uint16_t kComputeCategory = 0;
inline constexpr std::uint16_t kIoCategory = 1;
inline constexpr std::uint16_t kFirstMpiCategory = 2;

constexpr std::uint16_t mpi_category(ipm::CallKind k) noexcept {
  return static_cast<std::uint16_t>(kFirstMpiCategory + static_cast<int>(k));
}

/// The MPI call an interval category names; CallKind::kCount for any other.
constexpr ipm::CallKind call_of(std::uint16_t category) noexcept {
  return category >= kFirstMpiCategory && category < mpi_category(ipm::CallKind::kCount)
             ? static_cast<ipm::CallKind>(category - kFirstMpiCategory)
             : ipm::CallKind::kCount;
}

/// One recorded interval or instant. (track, id) is unique among a set's
/// causal spans; parent == 0 marks a root.
struct Span {
  sim::SimTime begin = 0;
  sim::SimTime end = 0;
  std::uint64_t bytes = 0;     ///< intervals: payload bytes
  std::int32_t track = 0;      ///< rank; -1 marks a global instant
  std::int32_t peer = -1;      ///< intervals: p2p partner rank, -1 otherwise
  std::uint32_t id = 0;        ///< causal: per-track ordinal from 1; 0 otherwise
  std::uint32_t parent = 0;    ///< causal: enclosing span's id, 0 for a root
  std::uint32_t label = 0;     ///< interned label (an instant's name); 0 = none
  std::uint16_t category = 0;  ///< interned category (intervals, causal spans)
  SpanKind kind = SpanKind::Interval;
};
static_assert(sizeof(Span) <= 48, "Span is the per-event unit of trace memory");

/// A matched send→recv pair: from the sender's row at send time to the
/// receiver's row at match time.
struct Flow {
  sim::SimTime send = 0;
  sim::SimTime recv = 0;
  std::uint64_t bytes = 0;
  std::int32_t src = 0;
  std::int32_t dst = 0;
};

/// Append-only trace of one job. Not thread-safe: one job's engine records
/// into it from one thread.
class SpanSet {
 public:
  SpanSet();

  /// Interned ids of a category / label name (new names are appended).
  /// Label 0 is the empty string.
  std::uint16_t category(std::string_view name);
  std::uint32_t label(std::string_view name);
  /// The category's id if this set has interned it.
  [[nodiscard]] std::optional<std::uint16_t> find_category(std::string_view name) const;
  [[nodiscard]] const std::string& category_name(std::uint16_t id) const {
    return categories_.name(id);
  }
  [[nodiscard]] const std::string& label_name(std::uint32_t id) const {
    return labels_.name(id);
  }
  [[nodiscard]] std::size_t category_count() const noexcept { return categories_.size(); }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] const std::vector<Flow>& flows() const noexcept { return flows_; }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  [[nodiscard]] bool empty() const noexcept { return spans_.empty(); }

  /// Spans of one track, in recording order.
  [[nodiscard]] std::vector<Span> for_track(int track) const;

  /// Appends `other` shifted by `offset`: names are re-interned and causal
  /// ids continue each track's ordinals, so a restart driver can stitch
  /// attempts into one timeline.
  void merge(const SpanSet& other, sim::SimTime offset);

 private:
  friend class SpanRecorder;  // appends, and patches `end` into open spans

  class Interner {
   public:
    std::uint32_t intern(std::string_view s);
    [[nodiscard]] std::optional<std::uint32_t> find(std::string_view s) const;
    [[nodiscard]] const std::string& name(std::uint32_t id) const { return names_[id]; }
    [[nodiscard]] std::size_t size() const noexcept { return names_.size(); }

   private:
    struct Hash {
      using is_transparent = void;
      std::size_t operator()(std::string_view s) const noexcept {
        return std::hash<std::string_view>{}(s);
      }
    };
    std::vector<std::string> names_;
    std::unordered_map<std::string, std::uint32_t, Hash, std::equal_to<>> ids_;
  };

  std::vector<Span> spans_;
  std::vector<Flow> flows_;
  Interner categories_;
  Interner labels_;
};

/// Per-track recording handle. Null (default-constructed) recorders are
/// no-ops: begin()/record() return 0, everything else does nothing — the
/// zero-cost disabled idiom of obs::Counter/Histogram.
class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(SpanSet* set, int track) : set_(set), track_(track) {}

  [[nodiscard]] bool enabled() const noexcept { return set_ != nullptr; }
  [[nodiscard]] int track() const noexcept { return track_; }

  /// A rank interval [b, e]: kComputeCategory, kIoCategory or mpi_category().
  void interval(sim::SimTime b, sim::SimTime e, std::uint16_t category,
                std::uint64_t bytes = 0, int peer = -1) {
    if (set_ == nullptr) return;
    set_->spans_.push_back(
        Span{.begin = b, .end = e, .bytes = bytes, .track = track_, .peer = peer,
             .category = category});
  }

  /// A message from rank `src`, sent at `send`, matched on this track at `recv`.
  void flow(int src, sim::SimTime send, sim::SimTime recv, std::uint64_t bytes) {
    if (set_ == nullptr) return;
    set_->flows_.push_back(Flow{.send = send, .recv = recv, .bytes = bytes, .src = src,
                                .dst = track_});
  }

  /// A zero-width marker named `name` at `t` on this track.
  void instant(sim::SimTime t, std::string_view name);

  /// Opens a causal span at `t`; returns its id (0 when disabled). The span
  /// nests under the innermost still-open span of this recorder.
  std::uint32_t begin(sim::SimTime t, std::string_view category, std::string_view label = {});

  /// Closes the open span `id` at `t`. Children still open are closed at the
  /// same instant (LIFO discipline; out-of-order ends close the stack down
  /// to and including `id`). Unknown/zero ids are ignored.
  void end(std::uint32_t id, sim::SimTime t);

  /// Records an already-closed causal span [b, e] nested under the innermost
  /// open span; returns its id (0 when disabled).
  std::uint32_t record(sim::SimTime b, sim::SimTime e, std::string_view category,
                       std::string_view label = {});

 private:
  struct Open {
    std::uint32_t id = 0;
    std::size_t index = 0;  ///< position in set_->spans_ to patch `end` into
  };

  std::uint32_t push_causal(sim::SimTime b, sim::SimTime e, std::string_view category,
                            std::string_view label);

  SpanSet* set_ = nullptr;
  int track_ = 0;
  std::uint32_t seq_ = 0;     ///< per-track ordinal id source
  std::vector<Open> stack_;   ///< open-span stack (parent linkage)
};

}  // namespace cirrus::obs
