// Unit tests for the engine's event queue (the at-clock FIFO lane in front of
// the 4-ary heap): it must pop exactly the (when, seq) order a brute-force
// sort of the same entries gives, whatever the push pattern — dense
// timestamp ties, pushes at the clock and heap pushes at the clock included.
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/rng.hpp"

namespace sim = cirrus::sim;
using sim::EventQueue;
using sim::SimTime;

namespace {

using Entry = EventQueue::Entry;

bool key_less(const Entry& a, const Entry& b) {
  return std::tie(a.when, a.seq) < std::tie(b.when, b.seq);
}

/// A timestamp from a tiny range, so most pushes tie with others.
SimTime dense_when(sim::Rng& rng, SimTime base) {
  return base + static_cast<SimTime>(rng.u64() % 8);
}

}  // namespace

TEST(EventQueue, DrainMatchesSortedReferenceUnderDenseTies) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    EventQueue q;
    sim::Rng rng(seed);
    std::vector<Entry> ref;
    // Sequence numbers are unique, as the engine's push counter makes them;
    // pushing them out of order checks the tie-break is seq, not arrival.
    const int n = 1 + static_cast<int>(rng.u64() % 3000);
    std::vector<std::uint64_t> seqs(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) seqs[static_cast<std::size_t>(i)] = static_cast<std::uint64_t>(i);
    for (int i = n - 1; i > 0; --i) {
      std::swap(seqs[static_cast<std::size_t>(i)],
                seqs[static_cast<std::size_t>(rng.u64() % static_cast<std::uint64_t>(i + 1))]);
    }
    for (int i = 0; i < n; ++i) {
      const Entry e{dense_when(rng, 0), seqs[static_cast<std::size_t>(i)],
                    static_cast<std::uintptr_t>(i)};
      q.push(e.when, e.seq, e.payload);
      ref.push_back(e);
    }
    std::sort(ref.begin(), ref.end(), key_less);
    ASSERT_EQ(q.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      const Entry got = q.pop();
      ASSERT_EQ(got.when, ref[i].when) << "seed " << seed << " pop " << i;
      ASSERT_EQ(got.seq, ref[i].seq) << "seed " << seed << " pop " << i;
      ASSERT_EQ(got.payload, ref[i].payload) << "seed " << seed << " pop " << i;
    }
    EXPECT_TRUE(q.empty());
  }
}

TEST(EventQueue, InterleavedPushPopMatchesSortedReference) {
  // The engine's pattern: pops advance a clock, pushes land at or after it
  // with a monotone seq. The reference is the sorted set of pending entries.
  // A quarter of the pushes land exactly at the clock (the lane) while heap
  // entries pushed earlier for the same time are still pending, so the
  // heap-then-lane arbitration at one timestamp is checked too.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    EventQueue q;
    sim::Rng rng(seed * 7919);
    std::vector<Entry> pending;
    std::uint64_t seq = 0;
    SimTime now = 0;
    for (int round = 0; round < 300; ++round) {
      const int pushes = static_cast<int>(rng.u64() % 12);
      for (int i = 0; i < pushes; ++i) {
        // Exactly at `now`, mostly ties near it, occasionally far ahead.
        const std::uint64_t pick = rng.u64() % 16;
        const SimTime when = pick < 4    ? now
                             : pick == 4 ? now + static_cast<SimTime>(rng.u64() % 1'000'000)
                                         : dense_when(rng, now);
        q.push(when, seq, static_cast<std::uintptr_t>(seq));
        pending.push_back(Entry{when, seq, static_cast<std::uintptr_t>(seq)});
        ++seq;
      }
      const int pops = static_cast<int>(rng.u64() % 12);
      for (int i = 0; i < pops && !pending.empty(); ++i) {
        const auto min = std::min_element(pending.begin(), pending.end(), key_less);
        const Entry got = q.pop();
        ASSERT_EQ(got.when, min->when) << "seed " << seed << " round " << round;
        ASSERT_EQ(got.seq, min->seq) << "seed " << seed << " round " << round;
        ASSERT_EQ(got.payload, min->payload);
        now = got.when;
        pending.erase(min);
      }
      ASSERT_EQ(q.size(), pending.size());
    }
  }
}

TEST(EventQueue, DrainVisitsEveryEntryThenEmpties) {
  EventQueue q;
  for (std::uint64_t i = 0; i < 100; ++i) q.push(static_cast<SimTime>(i % 5), i, i);
  std::vector<std::uintptr_t> seen;
  q.drain([&seen](const Entry& e) { seen.push_back(e.payload); });
  EXPECT_TRUE(q.empty());
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), 100U);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

TEST(EventQueue, HeapPushAtTheClockPopsBeforeTheLane) {
  // A reserved wake: its seq was taken before the clock reached its time, so
  // it is pushed at the clock into the heap and must pop after the older heap
  // entry at that time and before every lane entry.
  EventQueue q;
  q.push(10, 0, 100);
  q.push(10, 2, 102);
  EXPECT_EQ(q.pop().payload, 100u);  // the clock is now 10
  q.push(10, 5, 105);                // at the clock: the lane
  q.push(10, 6, 106);
  q.push_to_heap(10, 1, 101);
  q.push_to_heap(12, 3, 103);
  std::vector<std::uintptr_t> order;
  while (!q.empty()) order.push_back(q.pop().payload);
  EXPECT_EQ(order, (std::vector<std::uintptr_t>{101, 102, 105, 106, 103}));
}
