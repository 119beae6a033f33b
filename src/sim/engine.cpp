#include "sim/engine.hpp"

#include <cassert>
#include <sstream>
#include <utility>

namespace cirrus::sim {

Process::Process(Engine& engine, int pid, std::string name, std::function<void(Process&)> body)
    : engine_(&engine),
      pid_(pid),
      name_(std::move(name)),
      fiber_([this, body = std::move(body)] { body(*this); }, Fiber::kDefaultStackBytes,
             &engine.main_) {}

void Process::advance(SimTime dt) {
  assert(engine_->current_ == this && "advance() called from outside the process");
  engine_->wake_at(*this, engine_->now() + (dt < 0 ? 0 : dt));
  suspend();
}

void Process::suspend() {
  assert(engine_->current_ == this && "suspend() called from outside the process");
  state_ = State::Blocked;
  engine_->hand_off(*this);
  state_ = State::Running;
}

void Process::suspend(ResumeHook hook, void* ctx) {
  hook_ = hook;
  hook_ctx_ = ctx;
  suspend();
}

Engine::Engine() = default;

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
  // A reservation the clock has passed was, in event order, a processed
  // wake; one still ahead is drained like a queued wake.
  for (const auto& p : processes_) {
    p->wake_pending_ = false;
    if (std::exchange(p->reserved_, false) && !reservation_ahead(*p)) {
      ++events_processed_;
      ++stats_.wake_events;
    }
  }
  reservations_ = 0;
}

std::size_t Engine::events_pending() const noexcept {
  std::size_t n = queue_.size();
  if (reservations_ != 0) {
    for (const auto& p : processes_) n += p->reserved_ && reservation_ahead(*p) ? 1 : 0;
  }
  return n;
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
  if (p.reserved_ && settle_reservation(p)) return;
  assert(!p.wake_pending_ && "double wake: process already has a pending wake");
  if (when < now_) when = now_;
  p.wake_pending_ = true;
  push_process_event(when, p);
}

void Engine::reserve_wake(Process& p, SimTime when) {
  assert(current_ == &p && "reserve_wake() called from outside the process");
  assert(when > now_ && "a reserved wake must lie in the future");
  assert(!p.wake_pending_ && !p.reserved_ && "process already has a pending wake");
  p.reserved_ = true;
  p.reserved_when_ = when;
  p.reserved_seq_ = next_seq_++;
  ++reservations_;
}

bool Engine::settle_reservation(Process& p) {
  p.reserved_ = false;
  --reservations_;
  if (reservation_ahead(p)) {
    // Straight into the heap, never the lane: the reserved seq was taken
    // before the clock reached p.reserved_when_, so it precedes every lane
    // entry at that time.
    p.wake_pending_ = true;
    queue_.push_to_heap(p.reserved_when_, p.reserved_seq_, reinterpret_cast<std::uintptr_t>(&p));
    if (queue_.size() > stats_.heap_hwm) stats_.heap_hwm = queue_.size();
    return true;
  }
  ++events_processed_;
  ++stats_.wake_events;
  return false;
}

void Engine::settle_reservations_at_drain() noexcept {
  for (const auto& p : processes_) {
    if (!std::exchange(p->reserved_, false)) continue;
    ++events_processed_;
    ++stats_.wake_events;
    if (reservation_ahead(*p)) {
      now_ = p->reserved_when_;
      cur_seq_ = p->reserved_seq_;
    }
  }
  reservations_ = 0;
}

Process* Engine::next_wake() {
  while (!queue_.empty()) {
    const EventQueue::Entry entry = queue_.pop();
    assert(entry.when >= now_);
    now_ = entry.when;
    cur_seq_ = entry.seq;
    ++events_processed_;
    const unsigned tag = payload_tag(entry.payload);
    if (tag == 0u) {
      ++stats_.wake_events;
      auto* target = reinterpret_cast<Process*>(entry.payload);
      target->wake_pending_ = false;
      if (target->hook_ != nullptr && !run_hook(*target)) continue;
      ++stats_.fiber_switches;
      return target;
    }
    if (tag == 1u) {
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
  if (reservations_ != 0) settle_reservations_at_drain();
  return nullptr;
}

bool Engine::run_hook(Process& p) {
  current_ = &p;
  const bool resume = p.hook_(p.hook_ctx_);
  current_ = nullptr;  // a throwing hook leaves it set; the catch sites reset it
  if (resume) p.hook_ = nullptr;
  return resume;
}

void Engine::hand_off(Process& self) {
  current_ = nullptr;  // events dispatched here run outside any process
  Process* next = nullptr;
  try {
    next = next_wake();
  } catch (...) {
    current_ = nullptr;
    event_error_ = std::current_exception();
  }
  // Switch only outside the catch block: the C++ runtime keeps its list of
  // caught exceptions per thread, not per fiber.
  if (next == &self) {
    current_ = &self;  // our own wake was next: keep running, no switch
    return;
  }
  if (next == nullptr) {
    // The queue drained or an event threw: back to run(), which reports the
    // deadlock or rethrows. A later run() resumes us through enter().
    self.fiber_.yield();
    return;
  }
  assert(!next->finished());
  current_ = next;
  next->state_ = Process::State::Running;
  self.fiber_.switch_to(next->fiber_);
}

void Engine::enter(Process& p) {
  assert(current_ == nullptr && "re-entrant enter()");
  assert(!p.finished());
  current_ = &p;
  p.state_ = Process::State::Running;
  try {
    p.fiber_.resume();
  } catch (...) {
    current_ = nullptr;
    p.state_ = Process::State::Finished;
    throw;
  }
  // Back on the main stack. current_ is the process whose body returned —
  // p, or a peer the wakes were handed to — or null when a suspending
  // process drained the queue or an event it dispatched threw.
  if (Process* last = std::exchange(current_, nullptr); last != nullptr) {
    assert(last->fiber_.finished());
    last->state_ = Process::State::Finished;
    if (std::exception_ptr e = last->fiber_.take_error()) std::rethrow_exception(e);
  } else if (event_error_) {
    std::rethrow_exception(std::exchange(event_error_, nullptr));
  }
}

void Engine::run() {
  try {
    while (Process* p = next_wake()) enter(*p);
  } catch (...) {
    // A process body, an event or a resume hook threw. Leave the engine in a
    // defined state: no stale events (their callbacks are destroyed unrun),
    // no pending wakes, no process current.
    current_ = nullptr;
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
