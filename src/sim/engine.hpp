// The cirrus discrete-event simulation engine.
//
// A single OS thread multiplexes any number of simulated processes (fibers).
// Events are executed in strict (time, sequence) order, so a given program +
// seed always produces bit-identical virtual timings.
//
// Pending events sit in a 4-ary min-heap over SoA storage
// (sim/event_queue.hpp); callback state lives in a chunked slab whose slots
// are recycled through a free list and whose addresses never move. Process
// wake-ups — the dominant event kind (Process::advance, message
// completions) — carry only a Process pointer and never touch the
// allocator; generic callbacks keep their std::function in the slab slot,
// whose storage is reused across events.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/fiber.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace cirrus::sim {

class Engine;

/// Thrown by Engine::run() when the event queue drains while simulated
/// processes are still blocked — e.g. a receive with no matching send.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(std::string what) : std::runtime_error(std::move(what)) {}
};

/// A simulated process: a named fiber with a virtual-time interface.
///
/// All member functions other than accessors must be called from inside the
/// process's own body (they suspend the calling fiber).
class Process {
 public:
  [[nodiscard]] int pid() const noexcept { return pid_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Engine& engine() noexcept { return *engine_; }
  [[nodiscard]] bool finished() const noexcept { return state_ == State::Finished; }
  [[nodiscard]] bool blocked() const noexcept { return state_ == State::Blocked; }

  /// Lets `dt` of virtual time pass for this process (models computation or
  /// any fixed-duration occupancy). dt < 0 is treated as 0.
  void advance(SimTime dt);

  /// Blocks until some event calls Engine::wake() on this process. Exactly
  /// one wake per suspend.
  void suspend();

 private:
  friend class Engine;
  enum class State { Created, Running, Blocked, Finished };

  Process(Engine& engine, int pid, std::string name, std::function<void(Process&)> body,
          std::size_t stack_bytes);

  Engine* engine_;
  int pid_;
  std::string name_;
  State state_ = State::Created;
  bool wake_pending_ = false;
  Fiber fiber_;
};

/// The event-driven simulator core.
class Engine {
 public:
  struct Options {
    std::uint64_t seed = 1;
    std::size_t fiber_stack_bytes = Fiber::kDefaultStackBytes;
  };

  /// Intrinsic self-profiling counters, maintained inline by the hot loop
  /// (a handful of predictable adds per event — cheap enough to keep always
  /// on). Deterministic: derived purely from the event stream, never from
  /// wall clocks, so they are part of the reproducibility fingerprint.
  struct Stats {
    std::uint64_t wake_events = 0;      ///< process wake/start events executed
    std::uint64_t callback_events = 0;  ///< slab std::function callbacks executed
    std::uint64_t raw_events = 0;       ///< raw fn-pointer events executed
    std::uint64_t fiber_switches = 0;   ///< engine→process fiber entries
    std::uint64_t heap_hwm = 0;         ///< event queue depth high-water mark
    std::uint64_t slab_slots_hwm = 0;   ///< distinct callback slab slots ever live
    std::uint64_t slab_reuses = 0;      ///< slab allocations served from the free list
    std::uint64_t deadlock_scans = 0;   ///< end-of-run blocked-process scans
  };

  Engine() : Engine(Options{}) {}
  explicit Engine(const Options& opts);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] Rng& rng() noexcept { return rng_; }
  [[nodiscard]] std::uint64_t events_processed() const noexcept { return events_processed_; }
  [[nodiscard]] std::size_t events_pending() const noexcept { return queue_.size(); }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Creates a process whose body starts executing (at the current virtual
  /// time) once run() reaches its start event. The reference stays valid for
  /// the life of the engine.
  Process& spawn(std::string name, std::function<void(Process&)> body);

  /// Schedules `fn` to run in the engine context at virtual time `when`
  /// (clamped to now()).
  void schedule_at(SimTime when, std::function<void()> fn);
  void schedule_after(SimTime dt, std::function<void()> fn) {
    schedule_at(now_ + (dt < 0 ? 0 : dt), std::move(fn));
  }

  /// Wakes a process blocked in Process::suspend(), at time `when`. It is a
  /// logic error to wake a process that is not (or will not then be) blocked.
  /// Allocation-free: the event carries only the process pointer.
  void wake_at(Process& p, SimTime when);
  void wake(Process& p) { wake_at(p, now_); }

  /// Runs the simulation until the event queue is empty. Throws
  /// DeadlockError if processes remain blocked afterwards; rethrows the
  /// first exception escaping any process body. On such an exception the
  /// engine is left in a defined state: all pending events are drained
  /// (their callbacks destroyed, never run) before the rethrow.
  void run();

  /// Number of processes that have been spawned (finished or not).
  [[nodiscard]] std::size_t process_count() const noexcept { return processes_.size(); }

 private:
  friend class Process;

  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  /// One callback slab slot. Free slots chain via `next_free` and keep their
  /// `fn` storage, so a recycled slot's std::function can reuse its heap
  /// buffer for the next callback of similar capture size.
  struct FnSlot {
    std::function<void()> fn;
    std::uint32_t next_free = kNil;
  };

  /// Slab chunk size. Chunked storage keeps slot addresses stable, so growing
  /// the slab never moves live std::functions and a callback can be invoked
  /// in place while new events are being scheduled.
  static constexpr std::size_t kSlabChunk = 256;

  // Event payloads are tagged in their low 3 bits:
  //   0       → a Process* to enter (wake and process-start events);
  //   1       → a callback slab index, idx << 3 | 1;
  //   2..7    → a raw event: tag-2 indexes raw_table_, and the upper bits
  //             hold the 8-aligned context pointer.
  // Wake and raw events are fully allocation-free; only std::function
  // callbacks occupy a recycled slab slot.
  static constexpr std::uintptr_t kTagMask = 7u;
  static unsigned payload_tag(std::uintptr_t payload) noexcept {
    return static_cast<unsigned>(payload & kTagMask);
  }
  static std::uint32_t fn_index(std::uintptr_t payload) noexcept {
    return static_cast<std::uint32_t>(payload >> 3);
  }

  void enter(Process& p);  // switch into a process's fiber
  void push_entry(SimTime when, std::uintptr_t payload);
  void push_process_event(SimTime when, Process& p);
  /// Pops and executes the next event (sets now_, counts, dispatches).
  void dispatch_one();
  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t idx) noexcept;
  FnSlot& slot(std::uint32_t idx) noexcept {
    return slab_[idx / kSlabChunk][idx % kSlabChunk];
  }
  /// Destroys all pending events without running them (exception cleanup).
  void drain_pending() noexcept;
  /// The end-of-run blocked-process scan: throws DeadlockError naming the
  /// processes that never finished.
  void throw_if_blocked();

  /// Internal non-allocating variant of schedule_at: the event is a plain
  /// function pointer plus an 8-aligned context pointer, packed into the
  /// queue entry itself — no slab slot, no std::function. The caller owns
  /// `ctx` and must keep it alive until the event fires (or the engine is
  /// destroyed; a drained raw event is simply dropped). At most 6 distinct
  /// function pointers ride this path per engine; further ones fall back to
  /// schedule_at transparently.
  void schedule_raw(SimTime when, void (*fn)(void*), void* ctx);
  friend struct EngineInternal;

  Options opts_;
  Rng rng_;
  Stats stats_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  EventQueue queue_;  // pending events, popped in strict (when, seq) order
  std::vector<std::unique_ptr<FnSlot[]>> slab_;  // chunked, stable callback storage
  std::uint32_t slab_size_ = 0;
  std::uint32_t free_head_ = kNil;
  std::array<void (*)(void*), 6> raw_table_{};  // distinct raw event functions
  std::vector<std::unique_ptr<Process>> processes_;
  Process* current_ = nullptr;
};

/// Backdoor for the simulator's own subsystems (minimpi message delivery):
/// exposes the raw fn-pointer event path, which schedules without constructing
/// a std::function. Not part of the public API.
struct EngineInternal {
  static void schedule_raw(Engine& e, SimTime when, void (*fn)(void*), void* ctx) {
    e.schedule_raw(when, fn, ctx);
  }
};

}  // namespace cirrus::sim
