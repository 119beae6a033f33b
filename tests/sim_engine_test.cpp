// Unit tests for the discrete-event engine: event ordering, virtual time,
// process lifecycle, wake/suspend discipline, deadlock detection,
// determinism, the fiber-to-fiber handoff (events dispatched on a
// suspending process's stack, errors raised there, self-wakes), reserved
// wakes, resume hooks, and a seeded property test against a fiber-free
// reference interpreter.
#include "sim/engine.hpp"
#include "sim/rng.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace sim = cirrus::sim;
using sim::SimTime;

TEST(Engine, StartsAtTimeZero) {
  sim::Engine eng;
  EXPECT_EQ(eng.now(), 0);
}

TEST(Engine, EventsRunInTimeOrderRegardlessOfScheduleOrder) {
  sim::Engine eng;
  std::vector<int> order;
  eng.schedule_at(300, [&] { order.push_back(3); });
  eng.schedule_at(100, [&] { order.push_back(1); });
  eng.schedule_at(200, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 300);
}

TEST(Engine, SameTimeEventsRunInScheduleOrder) {
  sim::Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) eng.schedule_at(50, [&order, i] { order.push_back(i); });
  eng.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, ScheduleInThePastClampsToNow) {
  sim::Engine eng;
  SimTime seen = -1;
  eng.schedule_at(100, [&] {
    eng.schedule_at(5, [&] { seen = eng.now(); });  // "5" is in the past
  });
  eng.run();
  EXPECT_EQ(seen, 100);
}

TEST(Engine, ProcessAdvanceMovesVirtualTime) {
  sim::Engine eng;
  SimTime t_mid = -1, t_end = -1;
  eng.spawn("p", [&](sim::Process& self) {
    self.advance(1000);
    t_mid = eng.now();
    self.advance(500);
    t_end = eng.now();
  });
  eng.run();
  EXPECT_EQ(t_mid, 1000);
  EXPECT_EQ(t_end, 1500);
}

TEST(Engine, AdvanceZeroAndNegativeAreInstant) {
  sim::Engine eng;
  eng.spawn("p", [&](sim::Process& self) {
    self.advance(0);
    EXPECT_EQ(eng.now(), 0);
    self.advance(-5);
    EXPECT_EQ(eng.now(), 0);
  });
  eng.run();
}

TEST(Engine, TwoProcessesInterleaveByVirtualTime) {
  sim::Engine eng;
  std::vector<std::string> log;
  eng.spawn("a", [&](sim::Process& self) {
    self.advance(10);
    log.push_back("a@10");
    self.advance(20);  // -> 30
    log.push_back("a@30");
  });
  eng.spawn("b", [&](sim::Process& self) {
    self.advance(15);
    log.push_back("b@15");
    self.advance(30);  // -> 45
    log.push_back("b@45");
  });
  eng.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a@10", "b@15", "a@30", "b@45"}));
}

TEST(Engine, SuspendThenWakeResumesAtWakeTime) {
  sim::Engine eng;
  SimTime resumed_at = -1;
  sim::Process& p = eng.spawn("sleeper", [&](sim::Process& self) {
    self.suspend();
    resumed_at = eng.now();
  });
  eng.schedule_at(777, [&] { eng.wake(p); });
  eng.run();
  EXPECT_EQ(resumed_at, 777);
}

TEST(Engine, WakeAtFutureTime) {
  sim::Engine eng;
  SimTime resumed_at = -1;
  sim::Process& p = eng.spawn("sleeper", [&](sim::Process& self) {
    self.suspend();
    resumed_at = eng.now();
  });
  eng.schedule_at(10, [&] { eng.wake_at(p, 500); });
  eng.run();
  EXPECT_EQ(resumed_at, 500);
}

TEST(Engine, DeadlockIsDetectedAndNamed) {
  sim::Engine eng;
  eng.spawn("stuck-one", [](sim::Process& self) { self.suspend(); });
  try {
    eng.run();
    FAIL() << "expected DeadlockError";
  } catch (const sim::DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("stuck-one"), std::string::npos);
  }
}

TEST(Engine, NoDeadlockWhenAllProcessesFinish) {
  sim::Engine eng;
  for (int i = 0; i < 5; ++i) {
    eng.spawn("p" + std::to_string(i), [](sim::Process& self) { self.advance(100); });
  }
  EXPECT_NO_THROW(eng.run());
}

TEST(Engine, ExceptionInProcessBodyPropagatesFromRun) {
  sim::Engine eng;
  eng.spawn("thrower", [](sim::Process&) { throw std::runtime_error("app failure"); });
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(Engine, SpawnDuringRunWorks) {
  sim::Engine eng;
  SimTime child_done = -1;
  eng.spawn("parent", [&](sim::Process& self) {
    self.advance(100);
    eng.spawn("child", [&](sim::Process& c) {
      c.advance(50);
      child_done = eng.now();
    });
    self.advance(10);
  });
  eng.run();
  EXPECT_EQ(child_done, 150);
}

TEST(Engine, ProcessPidsAreSequential) {
  sim::Engine eng;
  auto& a = eng.spawn("a", [](sim::Process&) {});
  auto& b = eng.spawn("b", [](sim::Process&) {});
  EXPECT_EQ(a.pid(), 0);
  EXPECT_EQ(b.pid(), 1);
  EXPECT_EQ(eng.process_count(), 2u);
  eng.run();
}

TEST(Engine, ManyProcessesManySteps) {
  sim::Engine eng;
  constexpr int kProcs = 64;
  constexpr int kSteps = 100;
  std::vector<SimTime> final_time(kProcs, -1);
  for (int i = 0; i < kProcs; ++i) {
    eng.spawn("w" + std::to_string(i), [&, i](sim::Process& self) {
      for (int s = 0; s < kSteps; ++s) self.advance(i + 1);
      final_time[i] = eng.now();
    });
  }
  eng.run();
  for (int i = 0; i < kProcs; ++i) {
    EXPECT_EQ(final_time[i], static_cast<SimTime>(i + 1) * kSteps);
  }
}

TEST(Engine, EventCountIsTracked) {
  sim::Engine eng;
  eng.schedule_at(1, [] {});
  eng.schedule_at(2, [] {});
  eng.run();
  EXPECT_EQ(eng.events_processed(), 2u);
}

// Determinism: the same program, drawing its jitter from the same seed,
// produces bit-identical event counts and times across runs.
TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    sim::Engine eng;
    sim::Rng rng(seed);
    std::vector<SimTime> trace;
    for (int i = 0; i < 8; ++i) {
      eng.spawn("p" + std::to_string(i), [&, i](sim::Process& self) {
        for (int s = 0; s < 20; ++s) {
          const double jitter = rng.exponential(100.0);
          self.advance(static_cast<SimTime>(jitter) + i);
          trace.push_back(eng.now());
        }
      });
    }
    eng.run();
    return trace;
  };
  const auto t1 = run_once(42);
  const auto t2 = run_once(42);
  const auto t3 = run_once(43);
  EXPECT_EQ(t1, t2);
  EXPECT_NE(t1, t3);
}

// ---------------------------------------------------------------------------
// Fiber-to-fiber handoff.
// ---------------------------------------------------------------------------

namespace {

/// True if two frame addresses lie on one fiber stack.
bool same_stack(const void* a, const void* b) {
  const auto d = reinterpret_cast<std::intptr_t>(a) - reinterpret_cast<std::intptr_t>(b);
  return std::llabs(d) < static_cast<std::intptr_t>(sim::Fiber::kDefaultStackBytes);
}

}  // namespace

TEST(EngineHandoff, CallbackThrowingOnAFiberIsRethrownAndDrained) {
  // Every process is parked when the callback at t=100 comes due, so the
  // last one to suspend dispatches it on its own stack.
  auto keep = std::make_shared<int>(0);
  bool late_ran = false;
  const void* body_frame = nullptr;
  const void* callback_frame = nullptr;
  {
    sim::Engine eng;
    for (int i = 0; i < 3; ++i) {
      eng.spawn("parked" + std::to_string(i), [&](sim::Process& self) {
        body_frame = __builtin_frame_address(0);
        self.suspend();
        ADD_FAILURE() << "a parked process was woken";
      });
    }
    eng.schedule_at(100, [&] {
      callback_frame = __builtin_frame_address(0);
      throw std::runtime_error("callback failure");
    });
    eng.schedule_at(200, [&late_ran, keep] { late_ran = true; });
    EXPECT_EQ(keep.use_count(), 2);
    try {
      eng.run();
      FAIL() << "expected the callback's exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "callback failure");
    }
    EXPECT_TRUE(same_stack(body_frame, callback_frame));
    EXPECT_EQ(eng.now(), 100);
    EXPECT_EQ(eng.events_pending(), 0u);
    EXPECT_EQ(keep.use_count(), 1);  // the t=200 callback was destroyed unrun
    EXPECT_EQ(eng.stats().callback_events, 1u);
    EXPECT_EQ(eng.stats().fiber_switches, 3u);
  }  // the engine destroys three suspended fibers
  EXPECT_FALSE(late_ran);
}

TEST(EngineHandoff, ProcessThrowingWhilePeersAreParkedMidHandoff) {
  // a and b hand their wakes on to each other and to c; c throws while both
  // sit suspended inside a handoff.
  sim::Engine eng;
  std::vector<std::string> log;
  bool late_ran = false;
  auto parked = [&](sim::Process& self) {
    self.advance(5);
    log.push_back(self.name() + "@" + std::to_string(eng.now()));
    self.suspend();
    ADD_FAILURE() << self.name() << " was woken";
  };
  sim::Process& a = eng.spawn("a", parked);
  sim::Process& b = eng.spawn("b", parked);
  sim::Process& c = eng.spawn("c", [&](sim::Process& self) {
    self.advance(10);
    throw std::logic_error("c failed");
  });
  eng.schedule_at(50, [&] { late_ran = true; });
  EXPECT_THROW(eng.run(), std::logic_error);
  EXPECT_EQ(log, (std::vector<std::string>{"a@5", "b@5"}));
  EXPECT_EQ(eng.now(), 10);
  EXPECT_TRUE(a.blocked());
  EXPECT_TRUE(b.blocked());
  EXPECT_TRUE(c.finished());
  EXPECT_EQ(eng.events_pending(), 0u);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(eng.stats().fiber_switches, 6u);  // 3 starts, 3 advance wakes
}

TEST(EngineHandoff, SelfWakeCountsAsAFiberSwitch) {
  // The process's own wake is the next event every time, so its handoff
  // keeps running it without switching; the wake still counts.
  sim::Engine eng;
  std::vector<SimTime> seen;
  eng.spawn("loner", [&](sim::Process& self) {
    for (int i = 0; i < 3; ++i) {
      self.advance(i);
      seen.push_back(eng.now());
    }
  });
  eng.run();
  EXPECT_EQ(seen, (std::vector<SimTime>{0, 1, 3}));
  EXPECT_EQ(eng.stats().wake_events, 4u);
  EXPECT_EQ(eng.stats().fiber_switches, 4u);
  EXPECT_EQ(eng.events_processed(), 4u);
}

TEST(EngineHandoff, BlockedProcessResumesInALaterRun) {
  // The queue drains while p is suspended, so p's handoff returns to run();
  // a wake scheduled from outside resumes it through the next run().
  sim::Engine eng;
  bool done = false;
  sim::Process& p = eng.spawn("p", [&](sim::Process& self) {
    self.suspend();
    self.advance(7);
    done = true;
  });
  EXPECT_THROW(eng.run(), sim::DeadlockError);
  EXPECT_TRUE(p.blocked());
  eng.wake_at(p, 20);
  eng.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(eng.now(), 27);
}

// ---------------------------------------------------------------------------
// Reserved wakes: each case runs against the plain wake_at + re-suspend it
// stands for.
// ---------------------------------------------------------------------------

TEST(EngineReserve, WakeBeforeTheReservedKeyQueuesItUnderThatKey) {
  // The waker runs at t=10 with a smaller seq than the reservation, so r
  // resumes at the reserved key: after the waker, before the later-pushed
  // event at t=10 and before the lane entry the waker adds at the clock.
  sim::Engine eng;
  std::vector<std::string> log;
  sim::Process* r = nullptr;
  std::size_t pending_at_waker = 0;
  auto note = [&](const std::string& what) {
    log.push_back(what + "@" + std::to_string(eng.now()));
  };
  eng.schedule_at(10, [&] {
    note("waker");
    pending_at_waker = eng.events_pending();  // r's reservation and "late"
    eng.schedule_at(10, [&] { note("lane"); });
    eng.wake(*r);
  });
  r = &eng.spawn("r", [&](sim::Process& self) {
    eng.reserve_wake(self, 10);
    self.suspend();
    note("r");
  });
  eng.spawn("q", [&](sim::Process&) { eng.schedule_at(10, [&] { note("late"); }); });
  eng.run();
  EXPECT_EQ(log, (std::vector<std::string>{"waker@10", "r@10", "late@10", "lane@10"}));
  EXPECT_EQ(pending_at_waker, 2u);
  EXPECT_EQ(eng.events_processed(), 6u);  // 2 starts, waker, r, late, lane
  EXPECT_EQ(eng.stats().wake_events, 3u);
  EXPECT_EQ(eng.stats().fiber_switches, 3u);  // r resumed once, as with a plain wake
}

TEST(EngineReserve, WakeAfterTheReservedKeyCountsItAsPassed) {
  // The waker runs at t=10 with a larger seq than the reservation: a plain
  // wake would have resumed r at the reserved key only for it to re-suspend,
  // so that wake is counted without a switch and r resumes at the waker's.
  sim::Engine eng;
  std::vector<std::string> log;
  std::size_t pending_at_waker = 9;
  sim::Process& r = eng.spawn("r", [&](sim::Process& self) {
    eng.reserve_wake(self, 10);
    self.suspend();
    log.push_back("r@" + std::to_string(eng.now()));
  });
  eng.spawn("q", [&](sim::Process&) {
    eng.schedule_at(10, [&] {
      log.push_back("waker@" + std::to_string(eng.now()));
      pending_at_waker = eng.events_pending();  // the reserved wake is due
      eng.wake_at(r, 12);
    });
  });
  eng.run();
  EXPECT_EQ(log, (std::vector<std::string>{"waker@10", "r@12"}));
  EXPECT_EQ(pending_at_waker, 0u);
  EXPECT_EQ(eng.now(), 12);
  EXPECT_EQ(eng.events_processed(), 5u);  // 2 starts, passed wake, waker, r
  EXPECT_EQ(eng.stats().wake_events, 4u);
  EXPECT_EQ(eng.stats().fiber_switches, 3u);  // one fewer than a plain wake
}

TEST(EngineReserve, EventThrowingWithAReservationOutstandingDrainsIt) {
  // The throw comes before the reserved key (the wake is drained unrun) or
  // after it (the wake already ran, in event order, so it counts).
  for (const SimTime throw_at : {5, 15}) {
    sim::Engine eng;
    bool resumed = false;
    sim::Process& r = eng.spawn("r", [&](sim::Process& self) {
      eng.reserve_wake(self, 10);
      self.suspend();
      resumed = true;
    });
    eng.schedule_at(throw_at, [] { throw std::runtime_error("event failure"); });
    EXPECT_THROW(eng.run(), std::runtime_error);
    EXPECT_EQ(eng.now(), throw_at);
    EXPECT_EQ(eng.events_pending(), 0u);
    EXPECT_EQ(eng.events_processed(), throw_at < 10 ? 2u : 3u) << throw_at;
    EXPECT_EQ(eng.stats().wake_events, throw_at < 10 ? 1u : 2u) << throw_at;
    EXPECT_TRUE(r.blocked());
    // The reservation is gone: a later wake is a plain one.
    eng.wake_at(r, 20);
    eng.run();
    EXPECT_TRUE(resumed);
    EXPECT_EQ(eng.now(), 20);
  }
}

TEST(EngineReserve, DrainedQueueReportsTheDeadlockAPlainWakeWould) {
  // Nobody wakes r. The queue drains with its reservation outstanding; the
  // deadlock names the same time and event count as a plain wake followed
  // by a re-suspend.
  struct Ending {
    std::string what;
    SimTime now;
    std::uint64_t events, wakes, switches;
  };
  auto run_with = [](bool reserve) {
    sim::Engine eng;
    eng.spawn("r", [&, reserve](sim::Process& self) {
      if (reserve) {
        eng.reserve_wake(self, 10);
      } else {
        eng.wake_at(self, 10);
        self.suspend();
      }
      self.suspend();
    });
    eng.spawn("q", [](sim::Process& self) { self.advance(4); });
    Ending out;
    try {
      eng.run();
    } catch (const sim::DeadlockError& e) {
      out.what = e.what();
    }
    out.now = eng.now();
    out.events = eng.events_processed();
    out.wakes = eng.stats().wake_events;
    out.switches = eng.stats().fiber_switches;
    return out;
  };
  const Ending plain = run_with(false);
  const Ending reserved = run_with(true);
  EXPECT_NE(plain.what.find("still blocked at t=1e-08s: r (pid 0)"), std::string::npos)
      << plain.what;
  EXPECT_EQ(reserved.what, plain.what);
  EXPECT_EQ(reserved.now, 10);
  EXPECT_EQ(plain.now, 10);
  EXPECT_EQ(reserved.events, plain.events);
  EXPECT_EQ(reserved.wakes, plain.wakes);
  EXPECT_EQ(reserved.switches + 1, plain.switches);
}

// ---------------------------------------------------------------------------
// Resume hooks: each case runs against the plain suspends the hook stands
// for.
// ---------------------------------------------------------------------------

namespace {

/// A hook that stands for `left` more advances of `dt`: at each wake it logs
/// and re-arms the next advance, then lets the process go at the last one.
struct AdvanceHook {
  sim::Engine* eng;
  sim::Process* self;
  SimTime dt;
  int left;
  std::vector<std::string>* log;
  bool saw_blocked = true;

  static bool at_wake(void* ctx) {
    auto& h = *static_cast<AdvanceHook*>(ctx);
    h.saw_blocked = h.saw_blocked && h.self->blocked();
    if (h.left == 0) return true;
    --h.left;
    h.log->push_back(h.self->name() + "@" + std::to_string(h.eng->now()));
    h.eng->wake_at(*h.self, h.eng->now() + h.dt);
    return false;
  }
};

}  // namespace

TEST(EngineHook, HookThatStaysBlockedCountsTheWakeButNoSwitch) {
  // p advances 4 times by 3 while q advances in steps of 2: once with
  // plain advances, once with a hook standing for the last 3. The logs,
  // the clock and the event counts agree; the hooked run switches 3 fewer
  // times.
  struct Run {
    std::vector<std::string> log;
    SimTime now;
    std::uint64_t events, wakes, switches;
  };
  auto run_with = [](bool hooked) {
    sim::Engine eng;
    Run out;
    bool blocked_in_hook = false;
    eng.spawn("p", [&](sim::Process& self) {
      if (hooked) {
        AdvanceHook h{&eng, &self, 3, 3, &out.log};
        eng.wake_at(self, eng.now() + 3);
        self.suspend(&AdvanceHook::at_wake, &h);
        blocked_in_hook = h.saw_blocked;
      } else {
        for (int i = 0; i < 3; ++i) {
          self.advance(3);
          out.log.push_back("p@" + std::to_string(eng.now()));
        }
        self.advance(3);
        blocked_in_hook = true;
      }
      out.log.push_back("p done@" + std::to_string(eng.now()));
    });
    eng.spawn("q", [&](sim::Process& self) {
      for (int i = 0; i < 6; ++i) {
        self.advance(2);
        out.log.push_back("q@" + std::to_string(eng.now()));
      }
    });
    eng.run();
    EXPECT_TRUE(blocked_in_hook);
    out.now = eng.now();
    out.events = eng.events_processed();
    out.wakes = eng.stats().wake_events;
    out.switches = eng.stats().fiber_switches;
    return out;
  };
  const Run plain = run_with(false);
  const Run hooked = run_with(true);
  EXPECT_EQ(hooked.log, plain.log);
  EXPECT_EQ(hooked.now, plain.now);
  EXPECT_EQ(hooked.events, plain.events);
  EXPECT_EQ(hooked.wakes, plain.wakes);
  EXPECT_EQ(hooked.switches + 3, plain.switches);
}

TEST(EngineHook, ReleasingHookSwitchesAtTheSameKey) {
  // r waits for a waker at t=10; events pushed before and after the wake at
  // that time must run before and after r, as with a plain suspend.
  for (const bool hooked : {false, true}) {
    sim::Engine eng;
    std::vector<std::string> log;
    sim::Process* r = nullptr;
    int hook_calls = 0;
    auto note = [&](const std::string& what) {
      log.push_back(what + "@" + std::to_string(eng.now()));
    };
    eng.schedule_at(10, [&] { note("early"); });
    eng.schedule_at(10, [&] {
      note("waker");
      eng.wake(*r);
      eng.schedule_at(10, [&] { note("lane"); });
    });
    r = &eng.spawn("r", [&](sim::Process& self) {
      if (hooked) {
        self.suspend(
            [](void* calls) {
              ++*static_cast<int*>(calls);
              return true;
            },
            &hook_calls);
      } else {
        self.suspend();
      }
      note("r");
    });
    eng.run();
    EXPECT_EQ(log, (std::vector<std::string>{"early@10", "waker@10", "r@10", "lane@10"}))
        << hooked;
    EXPECT_EQ(hook_calls, hooked ? 1 : 0);
    EXPECT_EQ(eng.events_processed(), 5u);
    EXPECT_EQ(eng.stats().fiber_switches, 2u);  // the start and the release
  }
}

TEST(EngineHook, ThrowingHookIsRethrownByRunAndDrainsTheQueue) {
  // The hooked wake pops on the main stack (q has finished) or inside q's
  // handoff (q is suspended in an advance); both paths rethrow from run().
  for (const SimTime q_runs_for : {5, 20}) {
    sim::Engine eng;
    bool late_ran = false;
    sim::Process& p = eng.spawn("p", [&](sim::Process& self) {
      eng.wake_at(self, 10);
      self.suspend([](void*) -> bool { throw std::runtime_error("hook failure"); }, nullptr);
      ADD_FAILURE() << "p resumed";
    });
    eng.spawn("q", [&](sim::Process& self) { self.advance(q_runs_for); });
    eng.schedule_at(30, [&] { late_ran = true; });
    try {
      eng.run();
      FAIL() << "expected the hook's exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "hook failure");
    }
    EXPECT_EQ(eng.now(), 10);
    EXPECT_EQ(eng.events_pending(), 0u);
    EXPECT_TRUE(p.blocked());
    EXPECT_FALSE(late_ran);
  }
}

TEST(EngineHook, DeadlockWhileHookedNamesTheProcess) {
  // p's hook keeps waiting for a waker that never comes.
  sim::Engine eng;
  int calls = 0;
  eng.spawn("idle", [](sim::Process& self) { self.advance(1); });
  eng.spawn("hooked", [&](sim::Process& self) {
    eng.wake_at(self, 4);
    self.suspend(
        [](void* n) {
          ++*static_cast<int*>(n);
          return false;
        },
        &calls);
  });
  try {
    eng.run();
    FAIL() << "expected a deadlock";
  } catch (const sim::DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("1 process(es) still blocked at t=4e-09s: hooked (pid 1)"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(calls, 1);
}

// Seeded property test: random scripts run on the engine must produce the
// same dispatch log, clock and counters as a fiber-free interpreter that
// pops the same (time, seq) queue and runs each process's script inline.
// The interpreter runs a reserve-then-wait as the plain wake it stands for:
// the process resumes at the reserved time and, if no waker came first,
// re-suspends until one does. A hooked op stands for 1 + `target` advances
// or reserve-then-waits, all but the last carried on by a resume hook; the
// interpreter runs them as plain ones, and the engine saves the switch of
// each wake the hook keeps blocked.
namespace {

struct Op {
  enum Kind { Advance, Suspend, Wake, Callback, ReserveWait, HookedAdvance, HookedReserveWait } kind;
  sim::SimTime dt;  // Advance: the step; Wake/Callback: the delay; ReserveWait: the reserved delay
  int target;       // Wake/Callback: the process to wake if it is parked; hooked: the rounds
};

using Script = std::vector<std::vector<Op>>;  // one op list per process
using LogEntry = std::pair<sim::SimTime, int>;  // (now, pid or 1000 + callback id)

struct Outcome {
  std::vector<LogEntry> log;
  sim::SimTime now = 0;
  std::uint64_t events = 0, wakes = 0, callbacks = 0, switches = 0;
  std::uint64_t hooked_wakes = 0;  // wakes a resume hook kept blocked
  bool deadlock = false;
  bool operator==(const Outcome&) const = default;
};

Script random_script(std::mt19937_64& rng) {
  const int procs = 2 + static_cast<int>(rng() % 5);
  Script script(procs);
  for (auto& ops : script) {
    const int n = 1 + static_cast<int>(rng() % 12);
    for (int i = 0; i < n; ++i) {
      const auto roll = rng() % 27;
      const auto target = static_cast<int>(rng() % procs);
      if (roll < 5) {
        ops.push_back({Op::Advance, 0, 0});
      } else if (roll < 10) {
        ops.push_back({Op::Advance, static_cast<sim::SimTime>(1 + rng() % 4), 0});
      } else if (roll < 13) {
        ops.push_back({Op::Suspend, 0, 0});
      } else if (roll < 16) {
        ops.push_back({Op::Wake, static_cast<sim::SimTime>(rng() % 3), target});
      } else if (roll < 20) {
        ops.push_back({Op::Callback, static_cast<sim::SimTime>(rng() % 4), target});
      } else if (roll < 23) {
        ops.push_back({Op::ReserveWait, static_cast<sim::SimTime>(1 + rng() % 4), 0});
      } else {
        ops.push_back({roll < 25 ? Op::HookedAdvance : Op::HookedReserveWait,
                       static_cast<sim::SimTime>(roll < 25 ? rng() % 4 : 1 + rng() % 4),
                       1 + static_cast<int>(rng() % 3)});
      }
    }
  }
  return script;
}

// Wakes target `t` only if it is parked in a Suspend op with no wake on the
// way, as the engine requires; both runners apply the same rule.
struct Parking {
  std::vector<bool> parked, pending;
  explicit Parking(std::size_t n) : parked(n, false), pending(n, false) {}
  bool claim(int t) {
    if (!parked[t] || pending[t]) return false;
    pending[t] = true;
    return true;
  }
};

/// A hooked op's state on its process's frame: each round re-arms the op's
/// advance or reserve-then-wait; the last wake lets the process go.
struct ScriptHook {
  sim::Engine* eng;
  sim::Process* self;
  std::size_t i;
  const Op* op;
  int left;
  Outcome* out;
  Parking* park;

  void arm() {
    if (op->kind == Op::HookedAdvance) {
      eng->wake_at(*self, eng->now() + op->dt);
    } else {
      eng->reserve_wake(*self, eng->now() + op->dt);
      park->parked[i] = true;
    }
  }
  static bool at_wake(void* ctx) {
    auto& h = *static_cast<ScriptHook*>(ctx);
    h.park->parked[h.i] = h.park->pending[h.i] = false;
    if (h.left == 0) return true;
    --h.left;
    ++h.out->hooked_wakes;
    h.out->log.emplace_back(h.eng->now(), static_cast<int>(h.i));
    h.arm();
    return false;
  }
};

Outcome run_on_engine(const Script& script) {
  sim::Engine eng;
  Outcome out;
  Parking park(script.size());
  std::vector<sim::Process*> procs;
  int next_cb = 0;
  auto wake_if_parked = [&](int t, sim::SimTime when) {
    if (park.claim(t)) eng.wake_at(*procs[t], when);
  };
  for (std::size_t i = 0; i < script.size(); ++i) {
    procs.push_back(&eng.spawn("p" + std::to_string(i), [&, i](sim::Process& self) {
      out.log.emplace_back(eng.now(), static_cast<int>(i));
      for (const Op& op : script[i]) {
        switch (op.kind) {
          case Op::Advance:
            self.advance(op.dt);
            break;
          case Op::ReserveWait:
            eng.reserve_wake(self, eng.now() + op.dt);
            [[fallthrough]];
          case Op::Suspend:
            park.parked[i] = true;
            self.suspend();
            park.parked[i] = park.pending[i] = false;
            break;
          case Op::HookedAdvance:
          case Op::HookedReserveWait: {
            ScriptHook h{&eng, &self, i, &op, op.target, &out, &park};
            h.arm();
            self.suspend(&ScriptHook::at_wake, &h);
            break;
          }
          case Op::Wake:
            wake_if_parked(op.target, eng.now() + op.dt);
            continue;  // no dispatch, nothing to log
          case Op::Callback: {
            const int id = 1000 + next_cb++;
            eng.schedule_after(op.dt, [&, id, t = op.target] {
              out.log.emplace_back(eng.now(), id);
              wake_if_parked(t, eng.now());
            });
            continue;
          }
        }
        out.log.emplace_back(eng.now(), static_cast<int>(i));
      }
    }));
  }
  try {
    eng.run();
  } catch (const sim::DeadlockError&) {
    out.deadlock = true;
  }
  out.now = eng.now();
  out.events = eng.events_processed();
  out.wakes = eng.stats().wake_events;
  out.callbacks = eng.stats().callback_events;
  out.switches = eng.stats().fiber_switches;
  return out;
}

/// How the reference's reserve-then-waits ended.
struct Reservations {
  std::uint64_t passed = 0;  // resumed at the reserved time only to re-suspend
  std::uint64_t queued = 0;  // a waker came first; resumed at the reserved time
};

Outcome run_reference(const Script& script, Reservations& res) {
  const std::uint64_t passed_before = res.passed;
  // Event: (when, seq) -> pid for a wake, or -1 - k for callback k.
  std::map<std::pair<sim::SimTime, std::uint64_t>, int> queue;
  std::vector<std::pair<int, int>> callbacks;  // (log id, target)
  std::uint64_t seq = 0;
  sim::SimTime now = 0;
  Outcome out;
  Parking park(script.size());
  std::vector<std::size_t> pc(script.size(), 0);
  auto push = [&](sim::SimTime when, int what) { queue[{std::max(when, now), seq++}] = what; };
  // reserved[i]: i waits with its reserved-time wake still queued, so a
  // waker only marks it pending and that wake resumes it.
  std::vector<bool> reserved(script.size(), false);
  // hooked[i]: the op whose rounds i is in, and the rounds left after the
  // current one.
  std::vector<const Op*> hooked(script.size(), nullptr);
  std::vector<int> rounds_left(script.size(), 0);
  auto arm = [&](std::size_t i, const Op& op) {
    push(now + op.dt, static_cast<int>(i));
    if (op.kind == Op::ReserveWait || op.kind == Op::HookedReserveWait) {
      reserved[i] = true;
      park.parked[i] = true;
    }
  };
  auto wake_if_parked = [&](int t, sim::SimTime when) {
    if (park.claim(t) && !reserved[t]) push(when, t);
  };
  for (std::size_t i = 0; i < script.size(); ++i) push(0, static_cast<int>(i));
  std::vector<bool> done(script.size(), false);
  while (!queue.empty()) {
    const auto [key, what] = *queue.begin();
    queue.erase(queue.begin());
    now = key.first;
    ++out.events;
    if (what < 0) {
      ++out.callbacks;
      const auto [id, t] = callbacks[static_cast<std::size_t>(-1 - what)];
      out.log.emplace_back(now, id);
      wake_if_parked(t, now);
      continue;
    }
    ++out.wakes;
    const auto i = static_cast<std::size_t>(what);
    if (reserved[i]) {
      reserved[i] = false;
      if (!park.pending[i]) {
        ++res.passed;  // nothing to do but keep waiting, still parked
        continue;
      }
      ++res.queued;
    }
    park.parked[i] = park.pending[i] = false;
    out.log.emplace_back(now, what);
    if (hooked[i] != nullptr && rounds_left[i]-- > 0) {
      ++out.hooked_wakes;
      arm(i, *hooked[i]);  // the next round
      continue;
    }
    hooked[i] = nullptr;
    bool blocked = false;
    while (!blocked && pc[i] < script[i].size()) {
      const Op& op = script[i][pc[i]++];
      switch (op.kind) {
        case Op::Advance:
        case Op::ReserveWait:
          arm(i, op);
          blocked = true;
          break;
        case Op::HookedAdvance:
        case Op::HookedReserveWait:
          arm(i, op);
          hooked[i] = &op;
          rounds_left[i] = op.target;
          blocked = true;
          break;
        case Op::Suspend:
          park.parked[i] = true;
          blocked = true;
          break;
        case Op::Wake:
          wake_if_parked(op.target, now + op.dt);
          break;
        case Op::Callback:
          push(now + op.dt, -1 - static_cast<int>(callbacks.size()));
          callbacks.emplace_back(1000 + static_cast<int>(callbacks.size()), op.target);
          break;
      }
    }
    if (!blocked) done[i] = true;
  }
  out.now = now;
  // A passed reservation switches nothing, and neither does a wake a hook
  // keeps blocked.
  out.switches = out.wakes - (res.passed - passed_before) - out.hooked_wakes;
  for (const bool d : done) out.deadlock = out.deadlock || !d;
  return out;
}

}  // namespace

TEST(EngineHandoff, RandomScriptsMatchFiberFreeReference) {
  std::mt19937_64 rng(20120521);
  int deadlocks = 0;
  std::uint64_t hooked_wakes = 0;
  Reservations res;
  for (int trial = 0; trial < 300; ++trial) {
    const Script script = random_script(rng);
    const Outcome want = run_reference(script, res);
    const Outcome got = run_on_engine(script);
    ASSERT_EQ(got.log, want.log) << "trial " << trial;
    ASSERT_EQ(got, want) << "trial " << trial;
    deadlocks += want.deadlock ? 1 : 0;
    hooked_wakes += want.hooked_wakes;
  }
  // The scripts exercise both endings: a drained queue with processes still
  // parked on a fiber, and every process finishing.
  EXPECT_GT(deadlocks, 0);
  EXPECT_LT(deadlocks, 300);
  // ... and both ends of a reservation: woken before its time and after.
  EXPECT_GT(res.passed, 0u);
  EXPECT_GT(res.queued, 0u);
  // ... and wakes that resume hooks kept blocked.
  EXPECT_GT(hooked_wakes, 0u);
}
