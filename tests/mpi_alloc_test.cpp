// Allocation budget of the model-mode hot path. A counting global operator
// new checks that steady-state message passing does not touch the allocator
// (matching buckets, envelopes, requests and rendezvous completions are all
// recycled; small payloads and allreduce scratch need no buffer at all), that
// recycled envelopes keep no payload buffer alive, and that dataless NPB runs
// never allocate problem-sized arrays.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include <malloc.h>

#include "mpi/minimpi.hpp"
#include "npb/npb.hpp"

namespace {

std::atomic<std::size_t> g_allocs{0};
std::atomic<std::size_t> g_largest{0};
std::atomic<std::ptrdiff_t> g_live_bytes{0};  // usable bytes held through new

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  std::size_t seen = g_largest.load(std::memory_order_relaxed);
  while (n > seen && !g_largest.compare_exchange_weak(seen, n, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    g_live_bytes.fetch_add(static_cast<std::ptrdiff_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
    return p;
  }
  throw std::bad_alloc();
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::ptrdiff_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace mpi = cirrus::mpi;
namespace npb = cirrus::npb;
namespace plat = cirrus::plat;

namespace {

/// Allocations made by one model-mode np=4 job that runs `iters` rounds of
/// an eager sendrecv, a rendezvous sendrecv, an 8-byte sendrecv, an 8-byte
/// allreduce and a barrier. With `data` the two 8-byte calls carry values;
/// without it they move the same byte counts with no buffers.
std::size_t allocs_for_rounds(int iters, bool data = true) {
  mpi::JobConfig cfg;
  cfg.platform = plat::dcc();
  cfg.np = 4;
  cfg.max_ranks_per_node = 2;  // two nodes: intra- and inter-node paths
  cfg.execute = false;
  cfg.name = "alloc";
  const std::size_t before = g_allocs.load();
  mpi::run_job(cfg, [iters, data](mpi::RankEnv& env) {
    auto& c = env.world();
    const int right = (c.rank() + 1) % c.size();
    const int left = (c.rank() + c.size() - 1) % c.size();
    double mine = c.rank() + 1.0;
    double theirs = 0.0;
    for (int i = 0; i < iters; ++i) {
      c.sendrecv_bytes(right, 1, nullptr, 64, left, 1, nullptr, 64);
      c.sendrecv_bytes(right, 2, nullptr, 64 * 1024, left, 2, nullptr, 64 * 1024);
      if (data) {
        c.sendrecv(right, 3, &mine, 1, left, 3, &theirs, 1);
        mine = c.allreduce_one(theirs, mpi::Op::Sum) * 0.25;
      } else {
        c.sendrecv_bytes(right, 3, nullptr, sizeof(double), left, 3, nullptr, sizeof(double));
        c.allreduce_bytes(nullptr, nullptr, sizeof(double), nullptr);
      }
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

TEST(ModelModeAllocations, SmallPayloadsLeaseNoBuffer) {
  // 8-byte payloads ride inside their envelopes and 8-byte allreduce scratch
  // sits on the stack, so carrying the values costs no allocation at all:
  // not even the warm-up leases of a buffer pool.
  constexpr int kRounds = 50;
  (void)allocs_for_rounds(kRounds);  // warm process-wide caches
  const std::size_t with_data = allocs_for_rounds(kRounds, /*data=*/true);
  const std::size_t without = allocs_for_rounds(kRounds, /*data=*/false);
  EXPECT_EQ(with_data, without);
}

TEST(ModelModeAllocations, RecycledEnvelopesKeepNoRefusedPayload) {
  // A burst of more unexpected eager payloads than the buffer pool keeps
  // idle (128 at np 2). Once they are received, the buffers the pool refuses
  // must be freed, not kept inside the recycled envelopes for the rest of
  // the job.
  constexpr int kBurst = 400;
  constexpr std::size_t kBytes = 8 * 1024;  // eager, far above the inline size
  mpi::JobConfig cfg;
  cfg.platform = plat::dcc();
  cfg.np = 2;
  cfg.max_ranks_per_node = 1;
  cfg.execute = false;
  cfg.name = "burst";
  std::ptrdiff_t held = 0;
  mpi::run_job(cfg, [&held](mpi::RankEnv& env) {
    auto& c = env.world();
    std::vector<std::byte> buf(kBytes);
    if (c.rank() == 0) {
      c.barrier();  // rank 1 has taken its baseline
      for (int i = 0; i < kBurst; ++i) c.send_bytes(1, i, buf.data(), kBytes);
      c.barrier();
    } else {
      const std::ptrdiff_t before = g_live_bytes.load();
      c.barrier();
      c.barrier();  // the whole burst is now unexpected at this rank
      for (int i = 0; i < kBurst; ++i) c.recv_bytes(0, i, buf.data(), kBytes);
      held = g_live_bytes.load() - before;
    }
  });
  // The pool's 128 idle buffers (about 1 MiB) are all that may stay.
  EXPECT_LT(held, static_cast<std::ptrdiff_t>(200 * kBytes)) << "bytes still held: " << held;
}

TEST(ModelModeAllocations, DatalessNpbAllocatesNoProblemArrays) {
  constexpr std::size_t kMiB = std::size_t{1} << 20;
  for (const char* bench : {"IS", "CG"}) {
    const std::size_t largest = largest_alloc_during(
        [bench] { npb::run_benchmark(bench, npb::Class::A, plat::vayu(), 8, /*execute=*/false); });
    EXPECT_LT(largest, kMiB) << bench << ".A.8 model mode allocated " << largest << " bytes";
  }
  // IS moves its 8 KiB bucket histogram dataless too: no histogram, no
  // pooled payload for it and no owner map. Measured inside the ranks, past
  // the job's own setup (its per-rank IPM recorders outgrow 8 KiB).
  const auto& is = npb::benchmark("IS");
  mpi::JobConfig cfg;
  cfg.platform = plat::vayu();
  cfg.np = 8;
  cfg.execute = false;
  cfg.traits = is.traits;
  std::size_t is_largest = 0;
  mpi::run_job(cfg, [&is, &is_largest](mpi::RankEnv& env) {
    if (env.rank() == 0) g_largest.store(0);
    (void)is.fn(env, npb::Class::A);
    env.world().barrier();
    if (env.rank() == 0) is_largest = g_largest.load();
  });
  EXPECT_LT(is_largest, std::size_t{8} * 1024)
      << "IS.A.8 model mode ranks allocated " << is_largest << " bytes";
}
