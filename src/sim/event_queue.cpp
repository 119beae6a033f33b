#include "sim/event_queue.hpp"

#include <cassert>

namespace cirrus::sim {

// Hole-based sifts over the key and payload lanes. A key compare is one
// 128-bit compare: `when` decides, and the seq in the low half breaks ties.

void EventQueue::push(SimTime when, std::uint64_t seq, std::uintptr_t payload) {
  assert(when >= 0 && (now_ < 0 || when >= now_));
  if (when == now_) {
    lane_.push_back(LaneEntry{seq, payload});
    return;
  }
  push_to_heap(when, seq, payload);
}

void EventQueue::push_to_heap(SimTime when, std::uint64_t seq, std::uintptr_t payload) {
  assert(when >= 0 && (now_ < 0 || when >= now_));
  assert(lane_head_ == lane_.size() || when > now_ || seq < lane_[lane_head_].seq);
  if (n_ + 4 > key_.size()) {
    key_.resize(2 * (n_ + 4), kNoKey);
    payload_.resize(key_.size());
  }
  const Key key = (static_cast<Key>(when) << 64) | seq;
  std::size_t pos = n_++;
  while (pos > 0) {
    const std::size_t parent = (pos - 1) >> 2;
    if (key_[parent] < key) break;
    key_[pos] = key_[parent];
    payload_[pos] = payload_[parent];
    pos = parent;
  }
  key_[pos] = key;
  payload_[pos] = payload;
}

EventQueue::Entry EventQueue::pop() {
  assert(!empty());
  if (lane_head_ != lane_.size() && (n_ == 0 || static_cast<SimTime>(key_[0] >> 64) != now_)) {
    const LaneEntry e = lane_[lane_head_++];
    if (lane_head_ == lane_.size()) {
      lane_.clear();
      lane_head_ = 0;
    }
    return Entry{now_, e.seq, e.payload};
  }
  const Entry top{static_cast<SimTime>(key_[0] >> 64), static_cast<std::uint64_t>(key_[0]),
                  payload_[0]};
  now_ = top.when;
  --n_;
  const Key last = key_[n_];
  const std::uintptr_t last_payload = payload_[n_];
  key_[n_] = kNoKey;
  if (n_ == 0) return top;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t first = (pos << 2) + 1;
    if (first >= n_) break;
    // The least of the four children by index arithmetic: which child wins
    // is data-dependent, so a jump here mispredicts about half the time. The
    // empty asm statements make each compare a value the compiler cannot
    // turn back into a jump (measured: sim-paper 11-14% faster).
    const Key* k = &key_[first];
    std::size_t b01 = k[1] < k[0];
    std::size_t b23 = k[3] < k[2];
    asm("" : "+r"(b01), "+r"(b23));
    b23 |= 2;
    std::size_t lt = k[b23] < k[b01];
    asm("" : "+r"(lt));
    const std::size_t best = b01 ^ ((b01 ^ b23) & (0 - lt));
    if (!(k[best] < last)) break;
    key_[pos] = k[best];
    payload_[pos] = payload_[first + best];
    pos = first + best;
  }
  key_[pos] = last;
  payload_[pos] = last_payload;
  return top;
}

}  // namespace cirrus::sim
