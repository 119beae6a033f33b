// Pending-event storage for the simulation engine: a FIFO lane for events at
// the current time in front of a 4-ary implicit min-heap.
//
// The engine's correctness contract is a *total order*: events pop in strict
// (when, seq) order, where `seq` is the engine's push counter. Equal
// timestamps therefore run in the order they were scheduled, and a given
// program + seed pops the identical sequence on every run.
//
// The lane keeps that order without a heap operation. The queue's clock is
// the `when` of the last pop. An entry pushed at the clock carries the
// largest seq of every entry at that time: the heap's entries at the clock
// were pushed before the clock reached it, and the lane is FIFO in push
// order. So pop takes the heap while its top is at the clock, then the lane,
// then the heap again, which advances the clock. About a quarter of the
// engine's pushes land at the clock.
//
// The heap stores the sort key as one 128-bit lane, (when << 64) | seq
// (`when` is never negative), mirrored by heap position with a payload lane.
// Slots past the last entry hold the largest key, so every sift step picks
// the least of four children with no bounds check and no jump. O(log4 n)
// push/pop.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace cirrus::sim {

/// The pending-event set: push (when, seq, payload), pop in strict (when,
/// seq) order. After the first pop every push must carry a larger seq than
/// all earlier pushes and `when` no earlier than the last pop, as the
/// engine's clock and push counter do. Not thread-safe; one queue per engine.
class EventQueue {
 public:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::uintptr_t payload;
  };

  [[nodiscard]] bool empty() const noexcept { return n_ == 0 && lane_head_ == lane_.size(); }
  [[nodiscard]] std::size_t size() const noexcept { return n_ + (lane_.size() - lane_head_); }

  void push(SimTime when, std::uint64_t seq, std::uintptr_t payload);

  /// Pushes into the heap even at the clock. Only for an entry whose seq is
  /// smaller than every lane entry's (the engine's reserved wakes), which
  /// the heap then pops first, in (when, seq) order.
  void push_to_heap(SimTime when, std::uint64_t seq, std::uintptr_t payload);

  /// Removes and returns the (when, seq)-least entry. Precondition: !empty().
  Entry pop();

  /// Visits every pending entry in unspecified order (exception-cleanup
  /// drains: the engine frees callback slots), then empties the queue.
  template <typename Fn>
  void drain(Fn&& fn) {
    for (std::size_t i = 0; i < n_; ++i) {
      fn(Entry{static_cast<SimTime>(key_[i] >> 64), static_cast<std::uint64_t>(key_[i]),
               payload_[i]});
    }
    for (std::size_t i = lane_head_; i < lane_.size(); ++i) {
      fn(Entry{now_, lane_[i].seq, lane_[i].payload});
    }
    key_.clear();
    payload_.clear();
    n_ = 0;
    lane_.clear();
    lane_head_ = 0;
  }

 private:
  using Key = unsigned __int128;
  static constexpr Key kNoKey = ~Key{0};  // pads the slots past the last entry

  struct LaneEntry {
    std::uint64_t seq;
    std::uintptr_t payload;
  };

  // The heap: n_ entries in two lanes mirrored by position, padded with
  // kNoKey so every sibling group of four is readable.
  std::vector<Key> key_;
  std::vector<std::uintptr_t> payload_;
  std::size_t n_ = 0;
  // Entries at the clock, in push order, from lane_head_ on.
  std::vector<LaneEntry> lane_;
  std::size_t lane_head_ = 0;
  SimTime now_ = -1;  // `when` of the last pop; no entry is at it before one
};

}  // namespace cirrus::sim
