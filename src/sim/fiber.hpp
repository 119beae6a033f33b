// Cooperative fibers used to run simulated processes.
//
// Each simulated MPI rank runs on its own fiber so that rank code can be
// ordinary blocking C++: a call like `comm.recv(...)` suspends the fiber and
// the engine resumes it when the matching message arrives in virtual time.
// Exactly one fiber (or the main context) runs at any moment; the simulation
// is single-threaded and deterministic.
//
// Switching is symmetric: besides main -> fiber (resume) and fiber -> main
// (yield, or the body returning), a fiber can switch straight to a peer
// (switch_to). All fibers of one scheduler share one MainContext, the
// thread's own stack that resume() leaves and yield() returns to.
//
// Two switching backends:
//  * default: a ~20-instruction assembly switch (fiber_x86_64.S), no syscalls;
//  * CIRRUS_USE_UCONTEXT: portable POSIX ucontext fallback.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <utility>

#if defined(CIRRUS_USE_UCONTEXT)
#include <ucontext.h>
#endif

namespace cirrus::sim {

/// The context a fiber leaves to and returns to: the stack that called
/// resume(). Fibers that may switch to one another must share one, which
/// their scheduler owns; a fiber built without one gets its own. Only the
/// switch code reads it.
struct MainContext {
#if defined(CIRRUS_USE_UCONTEXT)
  ucontext_t ctx{};
#else
  void* sp = nullptr;  // main stack pointer, saved by resume()
#endif
  // Sanitizer bookkeeping, kept unconditionally so the ABI does not depend
  // on sanitizer flags. ASan must be told the bounds of every stack it is
  // switched to, and TSan the context it is switched to.
  const void* asan_bottom = nullptr;  // main stack bounds, learned on arrival
  std::size_t asan_size = 0;
  bool asan_from_main = false;  // set by resume() for the arriving fiber
  void* tsan_fiber = nullptr;   // TSan context of the main stack
};

/// A fiber owning a guard-paged stack and a user body.
///
/// Lifecycle: construct -> resume() from the main context, or switch_to()
/// from a peer -> body runs until it calls yield() (back to main) or
/// switch_to() (to a peer), or returns (back to main) -> control comes back
/// to whoever switches to this fiber next. finished() reports whether the
/// body has returned. If the body exits with an exception it is captured;
/// resume() rethrows it if this fiber is the one that came back, else
/// take_error() collects it.
class Fiber {
 public:
  /// `stack_bytes` is the usable stack size; one extra guard page below the
  /// stack turns overflow into SIGSEGV instead of silent corruption. `main`
  /// is shared with every fiber this one may switch_to(); null gives the
  /// fiber a context of its own.
  Fiber(std::function<void()> body, std::size_t stack_bytes, MainContext* main = nullptr);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switches from the main context into the fiber. Returns when a fiber
  /// sharing its MainContext yields or finishes — this one, or a peer it
  /// switched to. Rethrows this fiber's error if it finished with one. Must
  /// not be called from inside a fiber body, and not after finished().
  void resume();

  /// Switches from inside the fiber body back to the main context. Returns
  /// when the fiber is next resumed or switched to.
  void yield();

  /// Switches from inside this fiber's body straight into `next`, which
  /// shares this fiber's MainContext and has not finished. Returns when this
  /// fiber is next resumed or switched to.
  void switch_to(Fiber& next);

  [[nodiscard]] bool finished() const noexcept { return finished_; }

  /// Returns and clears the exception the body exited with, if any.
  [[nodiscard]] std::exception_ptr take_error() noexcept { return std::exchange(error_, nullptr); }

  /// Default stack size: generous because execute-mode workloads run real
  /// numerical kernels on fiber stacks. Pages are committed lazily.
  static constexpr std::size_t kDefaultStackBytes = 1 << 20;

 private:
  friend void fiber_entry_dispatch(Fiber* f);
  void run_body() noexcept;
  /// Sanitizer bookkeeping on every arrival on this fiber's stack.
  void arrived(void* fake_stack);
  /// Announces a switch to the main stack; `fake` as in arrived().
  void leave_for_main(void** fake);

  std::function<void()> body_;
  std::unique_ptr<MainContext> own_main_;  // only for a fiber built without one
  MainContext* main_;
  void* stack_mapping_ = nullptr;  // mmap base (includes guard page)
  std::size_t mapping_bytes_ = 0;
  bool finished_ = false;
  std::exception_ptr error_;

  // Sanitizer bookkeeping (unconditional, as in MainContext). ASan must be
  // told about every stack switch or it reads the wrong shadow memory; TSan
  // models each fiber as a lightweight thread whose context every switch
  // must name via __tsan_switch_to_fiber.
  void* asan_stack_bottom_ = nullptr;  // this fiber's usable stack base
  std::size_t asan_stack_size_ = 0;
  void* tsan_fiber_ = nullptr;  // TSan context for this fiber

#if defined(CIRRUS_USE_UCONTEXT)
  ucontext_t fiber_ctx_{};
#else
  void* fiber_sp_ = nullptr;  // fiber's saved stack pointer
#endif
};

}  // namespace cirrus::sim
