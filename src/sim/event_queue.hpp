// SoA pending-event storage for the simulation engine: a 4-ary implicit
// min-heap.
//
// The engine's correctness contract is a *total order*: events pop in strict
// (when, seq) order, where `seq` is the engine's push counter. Equal
// timestamps therefore run in the order they were scheduled, and a given
// program + seed pops the identical sequence on every run.
//
// The sort key and the payload live in three parallel arrays mirrored by
// heap position. Sift loops compare only the `when` lane — 8 bytes per
// entry, so eight keys per cache line — and touch the `seq` lane only on
// exact timestamp ties (rare with integer-nanosecond timestamps).
// O(log4 n) push/pop.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace cirrus::sim {

/// The pending-event set: push any (when, seq, payload), pop in strict
/// (when, seq) order. Not thread-safe; one queue per engine.
class EventQueue {
 public:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::uintptr_t payload;
  };

  [[nodiscard]] bool empty() const noexcept { return when_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return when_.size(); }

  void push(SimTime when, std::uint64_t seq, std::uintptr_t payload);

  /// Removes and returns the (when, seq)-least entry. Precondition: !empty().
  Entry pop();

  /// Visits every pending entry in unspecified order (exception-cleanup
  /// drains: the engine frees callback slots), then empties the queue.
  template <typename Fn>
  void drain(Fn&& fn) {
    for (std::size_t i = 0; i < when_.size(); ++i) fn(Entry{when_[i], seq_[i], payload_[i]});
    when_.clear();
    seq_.clear();
    payload_.clear();
  }

 private:
  /// The total order: `when` decides almost always; exact timestamp ties
  /// fall through to the push sequence number.
  [[nodiscard]] static bool key_before(SimTime wa, std::uint64_t qa, SimTime wb,
                                       std::uint64_t qb) noexcept {
    return wa != wb ? wa < wb : qa < qb;
  }
  [[nodiscard]] bool before(std::size_t a, std::size_t b) const noexcept {
    return key_before(when_[a], seq_[a], when_[b], seq_[b]);
  }

  // Three parallel arrays mirrored by heap position.
  std::vector<SimTime> when_;
  std::vector<std::uint64_t> seq_;
  std::vector<std::uintptr_t> payload_;
};

}  // namespace cirrus::sim
