// Allocation budget of the model-mode hot path. A counting global operator
// new checks that steady-state message passing does not touch the allocator
// (matching buckets, envelopes, requests and rendezvous completions are all
// recycled), and that dataless NPB runs never allocate problem-sized arrays.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "mpi/minimpi.hpp"
#include "npb/npb.hpp"

namespace {

std::atomic<std::size_t> g_allocs{0};
std::atomic<std::size_t> g_largest{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  std::size_t seen = g_largest.load(std::memory_order_relaxed);
  while (n > seen && !g_largest.compare_exchange_weak(seen, n, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mpi = cirrus::mpi;
namespace npb = cirrus::npb;
namespace plat = cirrus::plat;

namespace {

/// Allocations made by one model-mode np=4 job that runs `iters` rounds of
/// an eager sendrecv, a rendezvous sendrecv, an allreduce and a barrier.
std::size_t allocs_for_rounds(int iters) {
  mpi::JobConfig cfg;
  cfg.platform = plat::dcc();
  cfg.np = 4;
  cfg.max_ranks_per_node = 2;  // two nodes: intra- and inter-node paths
  cfg.execute = false;
  cfg.name = "alloc";
  const std::size_t before = g_allocs.load();
  mpi::run_job(cfg, [iters](mpi::RankEnv& env) {
    auto& c = env.world();
    const int right = (c.rank() + 1) % c.size();
    const int left = (c.rank() + c.size() - 1) % c.size();
    for (int i = 0; i < iters; ++i) {
      c.sendrecv_bytes(right, 1, nullptr, 64, left, 1, nullptr, 64);
      c.sendrecv_bytes(right, 2, nullptr, 64 * 1024, left, 2, nullptr, 64 * 1024);
      (void)c.allreduce_one(1.0, mpi::Op::Sum);
      c.barrier();
    }
  });
  return g_allocs.load() - before;
}

/// The largest single allocation made while `fn` runs.
template <typename Fn>
std::size_t largest_alloc_during(Fn&& fn) {
  g_largest.store(0);
  fn();
  return g_largest.load();
}

}  // namespace

TEST(ModelModeAllocations, SteadyStateMessagingDoesNotAllocate) {
  constexpr int kRounds = 200;
  (void)allocs_for_rounds(kRounds);  // warm process-wide caches
  const std::size_t once = allocs_for_rounds(kRounds);
  const std::size_t twice = allocs_for_rounds(2 * kRounds);
  ASSERT_GE(twice, once);
  EXPECT_LT(twice - once, static_cast<std::size_t>(kRounds / 10))
      << "K rounds: " << once << " allocations, 2K rounds: " << twice;
}

TEST(ModelModeAllocations, DatalessNpbAllocatesNoProblemArrays) {
  constexpr std::size_t kMiB = std::size_t{1} << 20;
  for (const char* bench : {"IS", "CG"}) {
    const std::size_t largest = largest_alloc_during(
        [bench] { npb::run_benchmark(bench, npb::Class::A, plat::vayu(), 8, /*execute=*/false); });
    EXPECT_LT(largest, kMiB) << bench << ".A.8 model mode allocated " << largest << " bytes";
  }
}
