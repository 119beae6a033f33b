#include "sim/engine.hpp"

#include <cassert>
#include <sstream>
#include <utility>

namespace cirrus::sim {

Process::Process(Engine& engine, int pid, std::string name, std::function<void(Process&)> body)
    : engine_(&engine),
      pid_(pid),
      name_(std::move(name)),
      fiber_([this, body = std::move(body)] { body(*this); }, Fiber::kDefaultStackBytes) {}

void Process::advance(SimTime dt) {
  assert(engine_->current_ == this && "advance() called from outside the process");
  engine_->wake_at(*this, engine_->now() + (dt < 0 ? 0 : dt));
  suspend();
}

void Process::suspend() {
  assert(engine_->current_ == this && "suspend() called from outside the process");
  state_ = State::Blocked;
  fiber_.yield();
  state_ = State::Running;
}

Engine::Engine(const Options& opts) : rng_(opts.seed) {}

Engine::~Engine() = default;

std::uint32_t Engine::alloc_slot() {
  if (free_head_ != kNil) {
    const std::uint32_t idx = free_head_;
    free_head_ = slot(idx).next_free;
    ++stats_.slab_reuses;
    return idx;
  }
  if (slab_size_ == slab_.size() * kSlabChunk) {
    slab_.push_back(std::make_unique<FnSlot[]>(kSlabChunk));
  }
  stats_.slab_slots_hwm = slab_size_ + 1;
  return slab_size_++;
}

void Engine::free_slot(std::uint32_t idx) noexcept {
  slot(idx).next_free = free_head_;
  free_head_ = idx;
}

void Engine::push_entry(SimTime when, std::uintptr_t payload) {
  queue_.push(when, next_seq_++, payload);
  if (queue_.size() > stats_.heap_hwm) stats_.heap_hwm = queue_.size();
}

void Engine::push_process_event(SimTime when, Process& p) {
  push_entry(when, reinterpret_cast<std::uintptr_t>(&p));
}

void Engine::drain_pending() noexcept {
  queue_.drain([this](const EventQueue::Entry& entry) {
    if (payload_tag(entry.payload) == 1u) {
      const std::uint32_t idx = fn_index(entry.payload);
      slot(idx).fn = nullptr;  // destroy captured state deterministically
      free_slot(idx);
    }
  });
  for (const auto& p : processes_) p->wake_pending_ = false;
}

// ---------------------------------------------------------------------------
// Scheduling interface.
// ---------------------------------------------------------------------------

Process& Engine::spawn(std::string name, std::function<void(Process&)> body) {
  const int pid = static_cast<int>(processes_.size());
  processes_.push_back(std::unique_ptr<Process>(
      new Process(*this, pid, std::move(name), std::move(body))));
  Process& p = *processes_.back();
  // Start events ride the wake fast path: entering a Created process starts
  // its fiber, so no closure is needed.
  push_process_event(now_, p);
  return p;
}

void Engine::schedule_at(SimTime when, std::function<void()> fn) {
  if (when < now_) when = now_;
  const std::uint32_t idx = alloc_slot();
  slot(idx).fn = std::move(fn);
  push_entry(when, (static_cast<std::uintptr_t>(idx) << 3) | 1u);
}

void Engine::schedule_raw(SimTime when, void (*fn)(void*), void* ctx) {
  assert((reinterpret_cast<std::uintptr_t>(ctx) & kTagMask) == 0 &&
         "raw event context must be 8-aligned");
  if (when < now_) when = now_;
  for (std::size_t i = 0; i < raw_table_.size(); ++i) {
    if (raw_table_[i] == fn || raw_table_[i] == nullptr) {
      raw_table_[i] = fn;
      push_entry(when, reinterpret_cast<std::uintptr_t>(ctx) | (i + 2));
      return;
    }
  }
  // Table full (more than 6 distinct raw functions): fall back to a closure.
  schedule_at(when, [fn, ctx] { fn(ctx); });
}

void Engine::wake_at(Process& p, SimTime when) {
  assert(!p.finished() && "waking a finished process");
  assert(!p.wake_pending_ && "double wake: process already has a pending wake");
  if (when < now_) when = now_;
  p.wake_pending_ = true;
  push_process_event(when, p);
}

void Engine::enter(Process& p) {
  assert(current_ == nullptr && "re-entrant enter()");
  assert(!p.finished());
  current_ = &p;
  p.state_ = Process::State::Running;
  ++stats_.fiber_switches;
  try {
    p.fiber_.resume();
  } catch (...) {
    current_ = nullptr;
    p.state_ = Process::State::Finished;
    throw;
  }
  current_ = nullptr;
  if (p.fiber_.finished()) p.state_ = Process::State::Finished;
}

void Engine::dispatch_one() {
  const EventQueue::Entry entry = queue_.pop();
  assert(entry.when >= now_);
  now_ = entry.when;
  ++events_processed_;
  const unsigned tag = payload_tag(entry.payload);
  if (tag == 0u) {
    ++stats_.wake_events;
    auto* target = reinterpret_cast<Process*>(entry.payload);
    target->wake_pending_ = false;
    enter(*target);
  } else if (tag == 1u) {
    ++stats_.callback_events;
    // Slot addresses are stable and the slot is not freed until after the
    // call, so the callback runs in place even if it schedules new events
    // (which may grow the slab but cannot recycle this slot).
    const std::uint32_t idx = fn_index(entry.payload);
    FnSlot& s = slot(idx);
    s.fn();
    s.fn = nullptr;
    free_slot(idx);
  } else {
    ++stats_.raw_events;
    raw_table_[tag - 2u](reinterpret_cast<void*>(entry.payload & ~kTagMask));
  }
}

void Engine::run() {
  try {
    while (!queue_.empty()) {
      dispatch_one();
    }
  } catch (...) {
    // A process body threw. Leave the engine in a defined state: no stale
    // events (their callbacks are destroyed unrun), no pending wakes.
    drain_pending();
    throw;
  }
  // The queue drained; every process must have run to completion.
  throw_if_blocked();
}

void Engine::throw_if_blocked() {
  ++stats_.deadlock_scans;
  std::ostringstream blocked;
  int nblocked = 0;
  for (const auto& p : processes_) {
    if (!p->finished()) {
      if (nblocked++ > 0) blocked << ", ";
      if (nblocked <= 8) blocked << p->name() << " (pid " << p->pid() << ")";
    }
  }
  if (nblocked > 0) {
    std::ostringstream msg;
    msg << "simulation deadlock: " << nblocked << " process(es) still blocked at t="
        << to_seconds(now_) << "s: " << blocked.str() << (nblocked > 8 ? ", ..." : "");
    throw DeadlockError(msg.str());
  }
}

}  // namespace cirrus::sim
