#include "sim/event_queue.hpp"

#include <cassert>

namespace cirrus::sim {

// Hole-based sifts over the parallel arrays. Comparisons read the `when`
// lane and fall through to `seq` only on exact ties, so a sift pass streams
// one densely packed 8-byte key lane.

void EventQueue::push(SimTime when, std::uint64_t seq, std::uintptr_t payload) {
  std::size_t pos = when_.size();
  when_.push_back(when);
  seq_.push_back(seq);
  payload_.push_back(payload);
  while (pos > 0) {
    const std::size_t parent = (pos - 1) >> 2;
    if (key_before(when_[parent], seq_[parent], when, seq)) break;
    when_[pos] = when_[parent];
    seq_[pos] = seq_[parent];
    payload_[pos] = payload_[parent];
    pos = parent;
  }
  when_[pos] = when;
  seq_[pos] = seq;
  payload_[pos] = payload;
}

EventQueue::Entry EventQueue::pop() {
  assert(!empty());
  const Entry top{when_[0], seq_[0], payload_[0]};
  const SimTime lwhen = when_.back();
  const std::uint64_t lseq = seq_.back();
  const std::uintptr_t lpayload = payload_.back();
  when_.pop_back();
  seq_.pop_back();
  payload_.pop_back();
  const std::size_t n = when_.size();
  if (n != 0) {
    std::size_t pos = 0;
    for (;;) {
      const std::size_t first_child = (pos << 2) + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t end = first_child + 4 < n ? first_child + 4 : n;
      for (std::size_t c = first_child + 1; c < end; ++c) {
        if (before(c, best)) best = c;
      }
      if (!key_before(when_[best], seq_[best], lwhen, lseq)) break;
      when_[pos] = when_[best];
      seq_[pos] = seq_[best];
      payload_[pos] = payload_[best];
      pos = best;
    }
    when_[pos] = lwhen;
    seq_[pos] = lseq;
    payload_[pos] = lpayload;
  }
  return top;
}

}  // namespace cirrus::sim
