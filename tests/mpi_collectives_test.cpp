// Collective correctness: barrier, bcast, allreduce, allgather (ring and
// recursive doubling), alltoall(v), scatter (eager and rendezvous blocks)
// and split are each checked against a locally computed reference, across a
// sweep of communicator sizes including non-powers-of-two (parameterised
// property tests). Allreduce rounds also have their resume count and a
// job killed mid-allreduce checked.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "mpi/minimpi.hpp"

namespace mpi = cirrus::mpi;
namespace plat = cirrus::plat;

namespace {

mpi::JobConfig cfg(int np) {
  mpi::JobConfig c;
  c.platform = plat::vayu();
  c.np = np;
  c.seed = 99;
  c.name = "coll-test";
  return c;
}

/// Deterministic per-rank test datum.
double value_of(int rank, int i) { return std::sin(rank * 13.7 + i) * 100.0; }

class CollectivesNp : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Sizes, CollectivesNp, ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16),
                         [](const auto& info) { return "np" + std::to_string(info.param); });

}  // namespace

TEST_P(CollectivesNp, Barrier) {
  const int np = GetParam();
  auto r = mpi::run_job(cfg(np), [](mpi::RankEnv& env) {
    // Stagger arrivals; the barrier must hold everyone until the last.
    env.compute(0.001 * (env.rank() + 1));
    env.world().barrier();
    env.report("t" + std::to_string(env.rank()), 1);
  });
  // The job takes at least as long as the slowest rank's pre-barrier work.
  EXPECT_GE(r.elapsed_seconds, 0.001 * np * 0.5);
}

TEST_P(CollectivesNp, BcastFromEveryRoot) {
  const int np = GetParam();
  for (int root = 0; root < np; ++root) {
    auto r = mpi::run_job(cfg(np), [root](mpi::RankEnv& env) {
      auto& c = env.world();
      std::vector<double> data(64, -1.0);
      if (c.rank() == root) {
        for (int i = 0; i < 64; ++i) data[static_cast<std::size_t>(i)] = value_of(root, i);
      }
      c.bcast_bytes(data.data(), data.size() * sizeof(double), root);
      double err = 0;
      for (int i = 0; i < 64; ++i) {
        err += std::abs(data[static_cast<std::size_t>(i)] - value_of(root, i));
      }
      if (err > 0) env.report("err", err);
    });
    EXPECT_EQ(r.values.count("err"), 0u) << "np=" << np << " root=" << root;
  }
}

TEST_P(CollectivesNp, AllreduceSumOnAllRanks) {
  const int np = GetParam();
  constexpr int kN = 17;
  auto r = mpi::run_job(cfg(np), [np](mpi::RankEnv& env) {
    auto& c = env.world();
    std::vector<double> in(kN), out(kN, 0);
    for (int i = 0; i < kN; ++i) in[static_cast<std::size_t>(i)] = value_of(c.rank(), i);
    c.allreduce(in.data(), out.data(), kN, mpi::Op::Sum);
    double err = 0;
    for (int i = 0; i < kN; ++i) {
      double expect = 0;
      for (int rk = 0; rk < np; ++rk) expect += value_of(rk, i);
      err = std::max(err, std::abs(out[static_cast<std::size_t>(i)] - expect));
    }
    env.report("err" + std::to_string(c.rank()), err);
  });
  for (int rk = 0; rk < np; ++rk) {
    EXPECT_LT(r.values.at("err" + std::to_string(rk)), 1e-9) << "rank " << rk;
  }
}

TEST_P(CollectivesNp, AllreduceMinMaxProd) {
  const int np = GetParam();
  auto r = mpi::run_job(cfg(np), [np](mpi::RankEnv& env) {
    auto& c = env.world();
    const double mine = static_cast<double>((env.rank() * 7 + 3) % 11) + 1.0;
    const double mx = c.allreduce_one(mine, mpi::Op::Max);
    const double mn = c.allreduce_one(mine, mpi::Op::Min);
    const double pr = c.allreduce_one(mine, mpi::Op::Prod);
    double emx = 0, emn = 1e9, epr = 1;
    for (int rk = 0; rk < np; ++rk) {
      const double v = static_cast<double>((rk * 7 + 3) % 11) + 1.0;
      emx = std::max(emx, v);
      emn = std::min(emn, v);
      epr *= v;
    }
    if (mx != emx || mn != emn || std::abs(pr - epr) > 1e-6 * epr) {
      env.report("bad" + std::to_string(env.rank()), 1);
    }
  });
  for (const auto& [k, v] : r.values) FAIL() << k;
}

TEST_P(CollectivesNp, AllgatherRing) {
  const int np = GetParam();
  constexpr int kN = 5;
  auto r = mpi::run_job(cfg(np), [np](mpi::RankEnv& env) {
    auto& c = env.world();
    std::vector<double> in(kN), out(static_cast<std::size_t>(kN * np), -1);
    for (int i = 0; i < kN; ++i) in[static_cast<std::size_t>(i)] = value_of(c.rank(), i);
    c.allgather(in.data(), out.data(), kN);
    double err = 0;
    for (int rk = 0; rk < np; ++rk) {
      for (int i = 0; i < kN; ++i) {
        err = std::max(err, std::abs(out[static_cast<std::size_t>(rk * kN + i)] - value_of(rk, i)));
      }
    }
    env.report("err" + std::to_string(c.rank()), err);
  });
  for (int rk = 0; rk < np; ++rk) EXPECT_EQ(r.values.at("err" + std::to_string(rk)), 0.0);
}

TEST_P(CollectivesNp, AlltoallTransposesBlocks) {
  const int np = GetParam();
  constexpr int kN = 3;  // doubles per destination
  auto r = mpi::run_job(cfg(np), [np](mpi::RankEnv& env) {
    auto& c = env.world();
    std::vector<double> in(static_cast<std::size_t>(kN * np)), out(static_cast<std::size_t>(kN * np), -1);
    for (int d = 0; d < np; ++d) {
      for (int i = 0; i < kN; ++i) {
        in[static_cast<std::size_t>(d * kN + i)] = c.rank() * 1000 + d * 10 + i;
      }
    }
    c.alltoall(in.data(), out.data(), kN);
    double err = 0;
    for (int s = 0; s < np; ++s) {
      for (int i = 0; i < kN; ++i) {
        const double expect = s * 1000 + c.rank() * 10 + i;
        err = std::max(err, std::abs(out[static_cast<std::size_t>(s * kN + i)] - expect));
      }
    }
    env.report("err" + std::to_string(c.rank()), err);
  });
  for (int rk = 0; rk < np; ++rk) EXPECT_EQ(r.values.at("err" + std::to_string(rk)), 0.0);
}

TEST_P(CollectivesNp, AlltoallvVariableCounts) {
  const int np = GetParam();
  auto r = mpi::run_job(cfg(np), [np](mpi::RankEnv& env) {
    auto& c = env.world();
    // Rank r sends (r + d + 1) doubles to destination d.
    std::vector<std::size_t> scounts(static_cast<std::size_t>(np)), rcounts(static_cast<std::size_t>(np));
    std::size_t stot = 0, rtot = 0;
    for (int d = 0; d < np; ++d) {
      scounts[static_cast<std::size_t>(d)] = static_cast<std::size_t>(c.rank() + d + 1) * sizeof(double);
      rcounts[static_cast<std::size_t>(d)] = static_cast<std::size_t>(d + c.rank() + 1) * sizeof(double);
      stot += scounts[static_cast<std::size_t>(d)];
      rtot += rcounts[static_cast<std::size_t>(d)];
    }
    std::vector<double> in(stot / sizeof(double)), out(rtot / sizeof(double), -1);
    std::size_t off = 0;
    for (int d = 0; d < np; ++d) {
      for (std::size_t i = 0; i < scounts[static_cast<std::size_t>(d)] / sizeof(double); ++i) {
        in[off++] = c.rank() * 100 + d;
      }
    }
    c.alltoallv_bytes(in.data(), scounts, out.data(), rcounts);
    double err = 0;
    off = 0;
    for (int s = 0; s < np; ++s) {
      for (std::size_t i = 0; i < rcounts[static_cast<std::size_t>(s)] / sizeof(double); ++i) {
        err = std::max(err, std::abs(out[off++] - (s * 100 + c.rank())));
      }
    }
    env.report("err" + std::to_string(c.rank()), err);
  });
  for (int rk = 0; rk < np; ++rk) EXPECT_EQ(r.values.at("err" + std::to_string(rk)), 0.0);
}

TEST_P(CollectivesNp, ScatterBinomial) {
  const int np = GetParam();
  // 4 doubles per rank travel eagerly; 4,096 (32 KiB) exceed the 16 KiB
  // eager threshold, so every tree edge takes the rendezvous path.
  for (const int kN : {4, 4096}) {
    for (int root : {0, np / 2}) {
      auto r = mpi::run_job(cfg(np), [root, np, kN](mpi::RankEnv& env) {
        auto& c = env.world();
        std::vector<double> in;
        if (c.rank() == root) {
          in.resize(static_cast<std::size_t>(kN * np));
          for (int rk = 0; rk < np; ++rk) {
            for (int i = 0; i < kN; ++i) {
              in[static_cast<std::size_t>(rk * kN + i)] = value_of(rk, i);
            }
          }
        }
        std::vector<double> out(static_cast<std::size_t>(kN), -1);
        c.scatter(c.rank() == root ? in.data() : nullptr, out.data(), kN, root);
        double err = 0;
        for (int i = 0; i < kN; ++i) {
          err = std::max(err, std::abs(out[static_cast<std::size_t>(i)] - value_of(c.rank(), i)));
        }
        env.report("err" + std::to_string(c.rank()), err);
      });
      for (int rk = 0; rk < np; ++rk) {
        EXPECT_EQ(r.values.at("err" + std::to_string(rk)), 0.0)
            << "np=" << np << " root=" << root << " n=" << kN;
      }
    }
  }
}

TEST(AllgatherAlgo, RingAndRecursiveDoublingAgree) {
  // np=6 runs the ring, np=8 recursive doubling (power-of-two np).
  for (const int np : {6, 8}) {
    auto r = mpi::run_job(cfg(np), [](mpi::RankEnv& env) {
      auto& comm = env.world();
      std::vector<double> mine(16, env.rank());
      std::vector<double> all(static_cast<std::size_t>(16 * comm.size()), -1);
      comm.allgather(mine.data(), all.data(), 16);
      double err = 0;
      for (int rr = 0; rr < comm.size(); ++rr) {
        for (int i = 0; i < 16; ++i) err += std::abs(all[static_cast<std::size_t>(rr * 16 + i)] - rr);
      }
      env.report("err" + std::to_string(env.rank()), err);
    });
    for (int rr = 0; rr < np; ++rr) {
      EXPECT_EQ(r.values.at("err" + std::to_string(rr)), 0.0) << "np=" << np;
    }
  }
}

TEST_P(CollectivesNp, SplitByParity) {
  const int np = GetParam();
  auto r = mpi::run_job(cfg(np), [np](mpi::RankEnv& env) {
    auto& c = env.world();
    auto sub = c.split(c.rank() % 2, c.rank());
    const int evens = (np + 1) / 2;
    const int expect_size = (c.rank() % 2 == 0) ? evens : np - evens;
    const int expect_rank = c.rank() / 2;
    if (sub->size() != expect_size || sub->rank() != expect_rank) {
      env.report("bad" + std::to_string(c.rank()), 1);
    }
    // The sub-communicator must actually work.
    const double sum = sub->allreduce_one(1.0, mpi::Op::Sum);
    if (sum != expect_size) env.report("badsum" + std::to_string(c.rank()), sum);
  });
  for (const auto& [k, v] : r.values) FAIL() << k << "=" << v;
}

TEST_P(CollectivesNp, SplitSubCommIsolatedFromParent) {
  const int np = GetParam();
  if (np < 4) GTEST_SKIP() << "needs at least two groups of two";
  auto r = mpi::run_job(cfg(np), [](mpi::RankEnv& env) {
    auto& c = env.world();
    auto sub = c.split(c.rank() % 2, c.rank());
    // Concurrent traffic in both sub-comms with identical tags must not mix.
    std::vector<double> buf(8, c.rank());
    const int partner = sub->rank() ^ 1;  // pair (0,1), (2,3), ...
    if (partner < sub->size()) {
      sub->sendrecv(partner, 1, buf.data(), buf.size(), partner, 1, buf.data(), buf.size());
    }
    const double total = c.allreduce_one(1.0, mpi::Op::Sum);
    env.report("n" + std::to_string(c.rank()), total);
  });
  for (const auto& [k, v] : r.values) EXPECT_EQ(v, GetParam()) << k;
}

TEST(Collectives, ModelModeCollectivesCostTimeWithoutData) {
  auto r = mpi::run_job(cfg(8), [](mpi::RankEnv& env) {
    auto& c = env.world();
    c.alltoall_bytes(nullptr, nullptr, 1 << 16);
    c.bcast_bytes(nullptr, 1 << 20, 0);
    c.allreduce_bytes(nullptr, nullptr, 8, {});
  });
  EXPECT_GT(r.elapsed_seconds, 1e-5);
}

TEST(Collectives, AllreduceLatencyGrowsLogarithmically) {
  // A 8-byte allreduce across nodes costs ~log2(np) x (latency + overhead):
  // the basis of the paper's finding that short-message collectives dominate
  // on high-latency clouds.
  auto time_np = [](int np) {
    mpi::JobConfig c;
    c.platform = plat::dcc();
    c.platform.nic.jitter_prob = 0;  // make it exact
    c.np = np;
    c.max_ranks_per_node = 1;  // force every hop inter-node
    c.name = "allred";
    auto r = mpi::run_job(c, [](mpi::RankEnv& env) {
      double x = 1;
      for (int i = 0; i < 10; ++i) x = env.world().allreduce_one(x, mpi::Op::Sum);
    });
    return r.elapsed_seconds;
  };
  const double t2 = time_np(2);
  const double t8 = time_np(8);
  EXPECT_GT(t8, 2.5 * t2);
  EXPECT_LT(t8, 4.5 * t2);
}

// ---- allreduce scratch: stack up to 64 bytes, pooled above ----

namespace {

/// Rank `rank`'s element i for `op`. Small integers, so every reduction order
/// gives the same exact result and a serial fold is the reference.
template <typename T>
T datum(int rank, std::size_t i, mpi::Op op) {
  const int k = rank * 7 + static_cast<int>(i) * 3;
  if (op == mpi::Op::Prod) {
    const T v = static_cast<T>(k % 3 + 1);
    return k % 4 == 0 ? static_cast<T>(-v) : v;
  }
  return static_cast<T>(k % 11 - 5);
}

template <typename T>
T fold(T a, T b, mpi::Op op) {
  switch (op) {
    case mpi::Op::Sum: return a + b;
    case mpi::Op::Prod: return a * b;
    case mpi::Op::Max: return std::max(a, b);
    case mpi::Op::Min: return std::min(a, b);
  }
  return a;
}

/// Elements, over all ranks, where an allreduce of `bytes` of T differs from
/// the serial fold.
template <typename T>
int allreduce_mismatches(int np, std::size_t bytes, mpi::Op op) {
  const std::size_t n = bytes / sizeof(T);
  const auto r = mpi::run_job(cfg(np), [np, n, op](mpi::RankEnv& env) {
    auto& c = env.world();
    std::vector<T> in(n);
    std::vector<T> out(n, static_cast<T>(99));
    for (std::size_t i = 0; i < n; ++i) in[i] = datum<T>(c.rank(), i, op);
    c.allreduce(in.data(), out.data(), n, op);
    int bad = 0;
    for (std::size_t i = 0; i < n; ++i) {
      T expect = datum<T>(0, i, op);
      for (int rk = 1; rk < np; ++rk) expect = fold(expect, datum<T>(rk, i, op), op);
      bad += out[i] != expect || in[i] != datum<T>(c.rank(), i, op);
    }
    env.report("bad" + std::to_string(c.rank()), bad);
  });
  int bad = 0;
  for (const auto& [k, v] : r.values) bad += static_cast<int>(v);
  return bad;
}

}  // namespace

TEST(AllreduceScratch, StackAndPooledScratchMatchSerialFold) {
  for (const int np : {3, 5, 8}) {
    for (const std::size_t bytes : {8u, 64u, 72u}) {  // stack, stack edge, pool
      for (const mpi::Op op : {mpi::Op::Sum, mpi::Op::Max, mpi::Op::Min, mpi::Op::Prod}) {
        const auto where = "np=" + std::to_string(np) + " bytes=" + std::to_string(bytes) +
                           " op=" + std::to_string(static_cast<int>(op));
        EXPECT_EQ(allreduce_mismatches<double>(np, bytes, op), 0) << "double " << where;
        EXPECT_EQ(allreduce_mismatches<int>(np, bytes, op), 0) << "int " << where;
      }
    }
  }
}

// ---- allreduce rounds: carried on by the rank's resume hook ----

TEST(AllreduceRounds, EveryNpSizeAndProtocolMatchesSerialFold) {
  // Power-of-two exchanges and non-power-of-two folds, eager rounds and
  // rendezvous ones (20 KB over the 16 KB eager threshold).
  ASSERT_EQ(cfg(1).eager_threshold_bytes, 16u * 1024u);
  for (int np = 1; np <= 9; ++np) {
    for (const std::size_t bytes : {8u, 64u, 20u * 1024u}) {
      for (const mpi::Op op : {mpi::Op::Sum, mpi::Op::Max, mpi::Op::Min}) {
        EXPECT_EQ(allreduce_mismatches<double>(np, bytes, op), 0)
            << "np=" << np << " bytes=" << bytes << " op=" << static_cast<int>(op);
      }
    }
  }
}

namespace {
std::uint64_t counter(const mpi::JobResult& r, const std::string& name) {
  for (const auto& [k, v] : r.telemetry->registry.counter_values()) {
    if (k == name) return v;
  }
  ADD_FAILURE() << "no counter " << name;
  return 0;
}
}  // namespace

TEST(AllreduceRounds, ResumesEachRankOncePerAllreduce) {
  // However many rounds and waits an allreduce takes, its rank's fiber is
  // switched to once: at its start event, then once per allreduce.
  constexpr int kCalls = 12;
  for (const int np : {2, 5, 8}) {
    for (const std::size_t bytes : {8u, 20u * 1024u}) {
      for (const bool data : {false, true}) {
        mpi::JobConfig config = cfg(np);
        config.telemetry.enabled = true;
        config.max_ranks_per_node = 2;  // inter-node rounds too
        const auto r = mpi::run_job(config, [bytes, data](mpi::RankEnv& env) {
          std::vector<double> in(bytes / sizeof(double), 1.0);
          std::vector<double> out(in.size());
          for (int i = 0; i < kCalls; ++i) {
            env.world().allreduce_bytes(data ? in.data() : nullptr, data ? out.data() : nullptr,
                                        bytes, mpi::detail::combiner_for<double>(mpi::Op::Sum));
          }
          if (data && out[0] != env.size()) env.report("bad", 1);
        });
        const auto where = "np=" + std::to_string(np) + " bytes=" + std::to_string(bytes) +
                           " data=" + std::to_string(data);
        EXPECT_EQ(counter(r, "sim_fiber_switches"), static_cast<std::uint64_t>(np) * (1 + kCalls))
            << where;
        EXPECT_GT(counter(r, "sim_events_wake"), counter(r, "sim_fiber_switches")) << where;
        EXPECT_EQ(r.values.count("bad"), 0u) << where;
      }
    }
  }
}

TEST(AllreduceRounds, JobKilledMidAllreduceEndsCleanly) {
  // Every rank sits inside an allreduce, blocked with its resume hook and
  // round state on its frame, when the kill fires; the job must unwind
  // without touching that state again (the asan preset runs this too).
  for (const std::size_t bytes : {8u, 20u * 1024u}) {
    mpi::JobConfig config = cfg(6);
    config.platform = plat::dcc();
    config.max_ranks_per_node = 1;
    const auto body = [bytes](mpi::RankEnv& env) {
      std::vector<double> in(bytes / sizeof(double), 1.0);
      std::vector<double> out(in.size());
      for (int i = 0; i < 400; ++i) {
        env.world().allreduce(in.data(), out.data(), in.size(), mpi::Op::Sum);
      }
    };
    const double full = mpi::run_job(config, body).elapsed_seconds;
    config.faults.kill_at_s = full / 2;
    try {
      (void)mpi::run_job(config, body);
      FAIL() << "expected the kill, bytes=" << bytes;
    } catch (const mpi::JobKilledError& e) {
      EXPECT_NEAR(e.at_seconds, full / 2, 1e-9);  // the kill lands on a whole ns
    }
  }
}
