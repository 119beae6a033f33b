#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <utility>

#if !defined(CIRRUS_USE_UCONTEXT)
extern "C" {
// Defined in fiber_x86_64.S.
void cirrus_ctx_switch(void** save_sp, void* target_sp);
void cirrus_fiber_entry_thunk();
// Called by the thunk with the fiber pointer that was parked in r12.
void cirrus_fiber_entry(void* fiber);
}
#endif

// AddressSanitizer tracks a shadow of the current stack; switching stacks
// behind its back makes it read garbage shadow and report false positives
// (or miss real bugs). These hooks tell it about every switch. The protocol:
// the departing context calls start_switch (saving its fake-stack state and
// naming the target stack), and the arriving context immediately calls
// finish_switch (restoring its own fake-stack state, learning the departed
// context's stack bounds).
#if defined(__SANITIZE_ADDRESS__)
#define CIRRUS_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CIRRUS_ASAN_FIBERS 1
#endif
#endif

#if defined(CIRRUS_ASAN_FIBERS)
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom, size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save, const void** bottom_old,
                                     size_t* size_old);
void __asan_unpoison_memory_region(void const volatile* addr, size_t size);
}
#endif

// ThreadSanitizer's fiber API: each fiber gets its own TSan context
// (created once, destroyed with the fiber), and __tsan_switch_to_fiber is
// called immediately before every stack switch so TSan's shadow state
// follows the control flow. Without this, TSan sees one OS thread hopping
// between stacks and reports phantom races on fiber-local data.
#if defined(__SANITIZE_THREAD__)
#define CIRRUS_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CIRRUS_TSAN_FIBERS 1
#endif
#endif

#if defined(CIRRUS_TSAN_FIBERS)
extern "C" {
void* __tsan_get_current_fiber(void);
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

namespace cirrus::sim {

namespace {

inline void asan_before_switch([[maybe_unused]] void** fake_save,
                               [[maybe_unused]] const void* target_bottom,
                               [[maybe_unused]] std::size_t target_size) {
#if defined(CIRRUS_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(fake_save, target_bottom, target_size);
#endif
}

inline void asan_after_switch([[maybe_unused]] void* fake_save,
                              [[maybe_unused]] const void** from_bottom,
                              [[maybe_unused]] std::size_t* from_size) {
#if defined(CIRRUS_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(fake_save, from_bottom, from_size);
#endif
}

inline void* tsan_current_fiber() {
#if defined(CIRRUS_TSAN_FIBERS)
  return __tsan_get_current_fiber();
#else
  return nullptr;
#endif
}

inline void tsan_switch_to([[maybe_unused]] void* target) {
#if defined(CIRRUS_TSAN_FIBERS)
  __tsan_switch_to_fiber(target, 0);
#endif
}

std::size_t page_size() {
  static const std::size_t sz = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return sz;
}

std::size_t round_up(std::size_t n, std::size_t unit) {
  return (n + unit - 1) / unit * unit;
}

}  // namespace

void fiber_entry_dispatch(Fiber* f) { f->run_body(); }

#if !defined(CIRRUS_USE_UCONTEXT)
extern "C" void cirrus_fiber_entry(void* fiber) {
  fiber_entry_dispatch(static_cast<Fiber*>(fiber));
  // run_body never returns control here: it yields back to the engine after
  // marking the fiber finished. The thunk's ud2 traps if it ever does.
}
#endif

Fiber::Fiber(std::function<void()> body, std::size_t stack_bytes, MainContext* main)
    : body_(std::move(body)),
      own_main_(main == nullptr ? std::make_unique<MainContext>() : nullptr),
      main_(main == nullptr ? own_main_.get() : main) {
  const std::size_t pg = page_size();
  const std::size_t usable = round_up(stack_bytes == 0 ? kDefaultStackBytes : stack_bytes, pg);
  mapping_bytes_ = usable + pg;  // + guard page at the low end
  stack_mapping_ = ::mmap(nullptr, mapping_bytes_, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (stack_mapping_ == MAP_FAILED) {
    stack_mapping_ = nullptr;
    throw std::system_error(errno, std::generic_category(), "fiber stack mmap");
  }
  if (::mprotect(stack_mapping_, pg, PROT_NONE) != 0) {
    throw std::system_error(errno, std::generic_category(), "fiber guard mprotect");
  }

  asan_stack_bottom_ = static_cast<std::uint8_t*>(stack_mapping_) + pg;
  asan_stack_size_ = usable;
#if defined(CIRRUS_TSAN_FIBERS)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif

#if defined(CIRRUS_USE_UCONTEXT)
  if (::getcontext(&fiber_ctx_) != 0) {
    throw std::system_error(errno, std::generic_category(), "getcontext");
  }
  fiber_ctx_.uc_stack.ss_sp = static_cast<std::uint8_t*>(stack_mapping_) + pg;
  fiber_ctx_.uc_stack.ss_size = usable;
  fiber_ctx_.uc_link = nullptr;
  // makecontext only passes ints portably; split the pointer across two.
  const auto ptr = reinterpret_cast<std::uintptr_t>(this);
  const auto lo = static_cast<unsigned>(ptr & 0xFFFFFFFFu);
  const auto hi = static_cast<unsigned>(ptr >> 32);
  auto trampoline = [](unsigned a, unsigned b) {
    const auto p = static_cast<std::uintptr_t>(a) | (static_cast<std::uintptr_t>(b) << 32);
    fiber_entry_dispatch(reinterpret_cast<Fiber*>(p));
  };
  using TrampFn = void (*)(unsigned, unsigned);
  static TrampFn tramp = trampoline;
  ::makecontext(&fiber_ctx_, reinterpret_cast<void (*)()>(tramp), 2, lo, hi);
#else
  // Fabricate the frame cirrus_ctx_switch expects to restore (see the .S
  // file): control words, r15..r12, rbx, rbp, then the ret target. The saved
  // r12 slot carries `this` into the entry thunk.
  auto* const top = static_cast<std::uint8_t*>(stack_mapping_) + mapping_bytes_;
  assert(reinterpret_cast<std::uintptr_t>(top) % 16 == 0);
  struct InitFrame {
    std::uint32_t mxcsr;
    std::uint32_t fcw;
    std::uint64_t r15, r14, r13, r12, rbx, rbp;
    void* ret_target;
    std::uint64_t fake_caller_ret;
  };
  static_assert(sizeof(InitFrame) == 72);
  auto* frame = reinterpret_cast<InitFrame*>(top - sizeof(InitFrame));
  std::memset(frame, 0, sizeof(InitFrame));
  frame->mxcsr = 0x1F80;  // SSE defaults: all exceptions masked
  frame->fcw = 0x037F;    // x87 defaults
  frame->r12 = reinterpret_cast<std::uint64_t>(this);
  frame->ret_target = reinterpret_cast<void*>(&cirrus_fiber_entry_thunk);
  fiber_sp_ = frame;
#endif
}

Fiber::~Fiber() {
  // Destroying a suspended fiber is allowed (it happens when the engine is
  // torn down after a deadlock error); objects on that fiber's stack are not
  // unwound, so anything they own leaks. This is only reachable on fatal
  // error paths.
  if (stack_mapping_ != nullptr) {
#if defined(CIRRUS_ASAN_FIBERS)
    // Shadow memory outlives the mapping: scrub our redzones so the next
    // fiber whose stack mmap lands on this range starts with clean shadow.
    __asan_unpoison_memory_region(asan_stack_bottom_, asan_stack_size_);
#endif
    ::munmap(stack_mapping_, mapping_bytes_);
  }
#if defined(CIRRUS_TSAN_FIBERS)
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
}

void Fiber::arrived([[maybe_unused]] void* fake_stack) {
#if defined(CIRRUS_ASAN_FIBERS)
  // Learn the main stack's bounds whenever we come from it: a fiber that
  // first arrives from a peer must still name the main stack when it yields.
  if (main_->asan_from_main) {
    main_->asan_from_main = false;
    asan_after_switch(fake_stack, &main_->asan_bottom, &main_->asan_size);
  } else {
    asan_after_switch(fake_stack, nullptr, nullptr);
  }
#endif
}

void Fiber::leave_for_main(void** fake) {
  asan_before_switch(fake, main_->asan_bottom, main_->asan_size);
  tsan_switch_to(main_->tsan_fiber);
}

void Fiber::run_body() noexcept {
  // First arrival on this stack: no fake-stack state to restore yet.
  arrived(nullptr);
  try {
    body_();
  } catch (...) {
    error_ = std::current_exception();
  }
  finished_ = true;
  // Hand control back to the main context, permanently. The null
  // fake_stack_save tells ASan this fiber is done for good.
  leave_for_main(nullptr);
#if defined(CIRRUS_USE_UCONTEXT)
  ::swapcontext(&fiber_ctx_, &main_->ctx);
#else
  cirrus_ctx_switch(&fiber_sp_, main_->sp);
#endif
  // Unreachable: a finished fiber is never resumed (asserted in resume()).
  assert(false && "finished fiber resumed");
}

void Fiber::resume() {
  assert(!finished_ && "resume() on a finished fiber");
  void* fake = nullptr;  // this frame survives the switch; a local suffices
  asan_before_switch(&fake, asan_stack_bottom_, asan_stack_size_);
  main_->asan_from_main = true;
  main_->tsan_fiber = tsan_current_fiber();
  tsan_switch_to(tsan_fiber_);
#if defined(CIRRUS_USE_UCONTEXT)
  ::swapcontext(&main_->ctx, &fiber_ctx_);
#else
  cirrus_ctx_switch(&main_->sp, fiber_sp_);
#endif
  asan_after_switch(fake, nullptr, nullptr);
  if (error_) std::rethrow_exception(take_error());
}

void Fiber::yield() {
  void* fake = nullptr;  // this frame survives the switch; a local suffices
  leave_for_main(&fake);
#if defined(CIRRUS_USE_UCONTEXT)
  ::swapcontext(&fiber_ctx_, &main_->ctx);
#else
  cirrus_ctx_switch(&fiber_sp_, main_->sp);
#endif
  arrived(fake);
}

void Fiber::switch_to(Fiber& next) {
  assert(next.main_ == main_ && "switch_to() a fiber of another main context");
  assert(&next != this && !next.finished_ && "switch_to() self or a finished fiber");
  void* fake = nullptr;
  asan_before_switch(&fake, next.asan_stack_bottom_, next.asan_stack_size_);
  tsan_switch_to(next.tsan_fiber_);
#if defined(CIRRUS_USE_UCONTEXT)
  ::swapcontext(&fiber_ctx_, &next.fiber_ctx_);
#else
  cirrus_ctx_switch(&fiber_sp_, next.fiber_sp_);
#endif
  arrived(fake);
}

}  // namespace cirrus::sim
