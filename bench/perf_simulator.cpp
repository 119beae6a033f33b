// google-benchmark microbenchmarks of the simulator substrate itself: how
// fast the host machine can push fibers, events, messages and collectives.
// These bound how large a simulated study fits in a given wall-clock budget.
//
// By default results are also written to BENCH_simulator.json (google-
// benchmark JSON format) so the perf trajectory can be tracked across PRs;
// pass an explicit --benchmark_out=... to override.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "mpi/minimpi.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"

namespace {

using namespace cirrus;

void BM_FiberSwitch(benchmark::State& state) {
  sim::Fiber* self = nullptr;
  bool stop = false;
  sim::Fiber f(
      [&] {
        while (!stop) self->yield();
      },
      64 << 10);
  self = &f;
  for (auto _ : state) {
    f.resume();  // one round trip = two context switches
  }
  stop = true;
  f.resume();
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_FiberSwitch);

/// Self-rescheduling callback: every firing re-arms itself one "wavelength"
/// into the future, so the heap holds a steady `pending` events and every
/// event is a push+pop against a warm engine — the shape the simulator's
/// message traffic actually produces (not a one-shot fill-then-drain).
struct Rearm {
  sim::Engine& eng;
  long long remaining;
  int pending;
  void fire() {
    if (remaining-- > 0) {
      eng.schedule_at(eng.now() + pending, [this] { fire(); });
    }
  }
};

/// Steady-state throughput of std::function events at a given heap size:
/// range(0) = pending events.
void BM_EngineEventThroughput(benchmark::State& state) {
  const int pending = static_cast<int>(state.range(0));
  const long long budget = 16LL * pending;
  for (auto _ : state) {
    sim::Engine eng;
    Rearm r{eng, budget, pending};
    for (int i = 0; i < pending; ++i) eng.schedule_at(i, [&r] { r.fire(); });
    eng.run();
    benchmark::DoNotOptimize(eng.events_processed());
    state.SetItemsProcessed(state.items_processed() + pending + budget);
  }
}
BENCHMARK(BM_EngineEventThroughput)->Arg(512)->Arg(2048)->Arg(10000);

struct RawRearm {
  sim::Engine* eng;
  long long remaining;
  int pending;
};

void raw_fire(void* ctx) {
  auto* r = static_cast<RawRearm*>(ctx);
  if (r->remaining-- > 0) {
    sim::EngineInternal::schedule_raw(*r->eng, r->eng->now() + r->pending, &raw_fire, r);
  }
}

/// Same wave shape through the raw fn-pointer event path — the path message
/// deliveries ride — with zero allocation and no std::function dispatch.
void BM_EngineRawEventThroughput(benchmark::State& state) {
  const int pending = static_cast<int>(state.range(0));
  const long long budget = 16LL * pending;
  for (auto _ : state) {
    sim::Engine eng;
    RawRearm r{&eng, budget, pending};
    for (int i = 0; i < pending; ++i) {
      sim::EngineInternal::schedule_raw(eng, i, &raw_fire, &r);
    }
    eng.run();
    benchmark::DoNotOptimize(eng.events_processed());
    state.SetItemsProcessed(state.items_processed() + pending + budget);
  }
}
BENCHMARK(BM_EngineRawEventThroughput)->Arg(512)->Arg(2048)->Arg(10000);

void BM_ProcessAdvance(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    const int steps = 2000;
    eng.spawn("p", [&](sim::Process& self) {
      for (int i = 0; i < steps; ++i) self.advance(10);
    });
    eng.run();
    state.SetItemsProcessed(state.items_processed() + steps);
  }
}
BENCHMARK(BM_ProcessAdvance);

void BM_P2PMessageRate(benchmark::State& state) {
  const auto msgs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mpi::JobConfig cfg;
    cfg.platform = plat::vayu();
    cfg.np = 2;
    cfg.name = "bench";
    mpi::run_job(cfg, [msgs](mpi::RankEnv& env) {
      auto& c = env.world();
      for (int i = 0; i < msgs; ++i) {
        if (c.rank() == 0) {
          c.send_bytes(1, 1, nullptr, 8);
        } else {
          c.recv_bytes(0, 1, nullptr, 8);
        }
      }
    });
    state.SetItemsProcessed(state.items_processed() + msgs);
  }
}
BENCHMARK(BM_P2PMessageRate)->Arg(10000);

/// Message rate with fat-tree fabric routing on the hot path: one rank per
/// node and radix-1 leaves, so every transfer walks an up + down link pair
/// (route lookup, two serial-link reservations, per-link stats). The delta
/// vs BM_P2PMessageRate bounds the cost of topology mode.
void BM_P2PMessageRateFatTree(benchmark::State& state) {
  const auto msgs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mpi::JobConfig cfg;
    cfg.platform = plat::vayu();
    cfg.np = 2;
    cfg.max_ranks_per_node = 1;  // force the inter-node (fabric) path
    cfg.name = "bench";
    cfg.topology.kind = topo::Kind::FatTree;
    cfg.topology.leaf_radix = 1;
    mpi::run_job(cfg, [msgs](mpi::RankEnv& env) {
      auto& c = env.world();
      for (int i = 0; i < msgs; ++i) {
        if (c.rank() == 0) {
          c.send_bytes(1, 1, nullptr, 8);
        } else {
          c.recv_bytes(0, 1, nullptr, 8);
        }
      }
    });
    state.SetItemsProcessed(state.items_processed() + msgs);
  }
}
BENCHMARK(BM_P2PMessageRateFatTree)->Arg(10000);

/// Worst case for list-scan matching: N receives posted on distinct tags,
/// messages arriving in reverse tag order, so a linear scan of the posted
/// queue walks ~N entries per match (O(N^2) total). The hashed (source, tag)
/// buckets make every match O(1).
void BM_MatchQueueStress(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mpi::JobConfig cfg;
    cfg.platform = plat::vayu();
    cfg.np = 2;
    cfg.name = "bench";
    mpi::run_job(cfg, [n](mpi::RankEnv& env) {
      auto& c = env.world();
      if (c.rank() == 0) {
        std::vector<mpi::Request> reqs;
        reqs.reserve(static_cast<std::size_t>(n));
        for (int t = 0; t < n; ++t) reqs.push_back(c.irecv_bytes(1, t, nullptr, 8));
        c.waitall(reqs);
      } else {
        for (int t = n - 1; t >= 0; --t) c.send_bytes(0, t, nullptr, 8);
      }
    });
    state.SetItemsProcessed(state.items_processed() + n);
  }
}
BENCHMARK(BM_MatchQueueStress)->Arg(64)->Arg(512)->Arg(4096);

void BM_Allreduce64Ranks(benchmark::State& state) {
  for (auto _ : state) {
    mpi::JobConfig cfg;
    cfg.platform = plat::vayu();
    cfg.np = 64;
    cfg.name = "bench";
    mpi::run_job(cfg, [](mpi::RankEnv& env) {
      double x = 1;
      for (int i = 0; i < 20; ++i) x = env.world().allreduce_one(x, mpi::Op::Sum);
    });
    state.SetItemsProcessed(state.items_processed() + 20);
  }
}
BENCHMARK(BM_Allreduce64Ranks);

void BM_Allreduce256Ranks(benchmark::State& state) {
  for (auto _ : state) {
    mpi::JobConfig cfg;
    cfg.platform = plat::vayu();
    cfg.np = 256;
    cfg.name = "bench";
    mpi::run_job(cfg, [](mpi::RankEnv& env) {
      double x = 1;
      for (int i = 0; i < 5; ++i) x = env.world().allreduce_one(x, mpi::Op::Sum);
    });
    state.SetItemsProcessed(state.items_processed() + 5);
  }
}
BENCHMARK(BM_Allreduce256Ranks);

}  // namespace

int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("debug_build", "false");
#else
  // Numbers from an assert-enabled build are not comparable with the
  // Release trajectory; make that impossible to miss in both the terminal
  // and the JSON artifact.
  std::fprintf(stderr,
               "*** WARNING: perf_simulator built without NDEBUG (asserts on). ***\n"
               "*** These numbers are NOT comparable with Release results; rebuild ***\n"
               "*** with the Release preset before updating BENCH_simulator.json.  ***\n");
  benchmark::AddCustomContext("debug_build", "true");
#endif
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with("--benchmark_out")) has_out = true;
  }
  static std::string out_flag = "--benchmark_out=BENCH_simulator.json";
  static std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
