// The deterministic parallel experiment driver: full index coverage, stable
// result order, serial/parallel equivalence on real simulations, and
// lowest-index exception propagation.
#include "core/driver.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mpi/minimpi.hpp"

namespace core = cirrus::core;
namespace mpi = cirrus::mpi;
namespace plat = cirrus::plat;

TEST(Driver, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  core::parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); }, 4);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(Driver, ZeroAndOneSizedSweeps) {
  core::parallel_for(0, [](std::size_t) { FAIL(); }, 8);
  int calls = 0;
  core::parallel_for(1, [&](std::size_t) { ++calls; }, 8);
  EXPECT_EQ(calls, 1);
}

TEST(Driver, ResultsInStableIndexOrder) {
  const auto out = core::run_sweep<std::size_t>(
      257, [](std::size_t i) { return i * i; }, 5);
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(Driver, ParallelSimulationsMatchSerialBitForBit) {
  // Each sweep point is an independent deterministic simulation; the driver
  // must produce the same doubles for any worker count.
  const auto point = [](std::size_t i) {
    mpi::JobConfig cfg;
    cfg.platform = plat::vayu();
    cfg.np = 2 + static_cast<int>(i % 3);
    cfg.seed = 10 + i;
    cfg.name = "driver-test";
    return mpi::run_job(cfg, [](mpi::RankEnv& env) {
              auto& c = env.world();
              double x = c.rank();
              double sum = 0;
              for (int k = 0; k < 5; ++k) c.allreduce(&x, &sum, 1, mpi::Op::Sum);
              env.compute(0.0001);
              c.barrier();
            })
        .elapsed_seconds;
  };
  const auto serial = core::run_sweep<double>(12, point, 1);
  const auto parallel = core::run_sweep<double>(12, point, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "sweep point " << i;
  }
}

TEST(Driver, LowestIndexExceptionWins) {
  // Multiple bodies throw; the rethrown exception must be the lowest-index
  // one, exactly as a serial loop would surface, for any worker count.
  for (int jobs : {1, 4}) {
    try {
      core::parallel_for(
          100,
          [](std::size_t i) {
            if (i == 17 || i == 3 || i == 90) {
              throw std::runtime_error("boom " + std::to_string(i));
            }
          },
          jobs);
      FAIL() << "expected an exception (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom 3") << "jobs=" << jobs;
    }
  }
}

TEST(Driver, DefaultParallelismIsPositive) {
  EXPECT_GE(core::default_parallelism(), 1);
}

TEST(Driver, CompoundResultsKeepIndexOrder) {
  // A sweep point's result can carry its own label, so a table rendered
  // from the result vector names each configuration correctly at any
  // worker count.
  using Point = std::pair<std::string, int>;
  const auto f = [](std::size_t i) {
    return Point{"point-" + std::to_string(i), static_cast<int>(i) * 10};
  };
  const auto serial = core::run_sweep<Point>(23, f, 1);
  const auto parallel = core::run_sweep<Point>(23, f, 4);
  ASSERT_EQ(serial.size(), 23u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].first, "point-" + std::to_string(i));
    EXPECT_EQ(serial[i].second, static_cast<int>(i) * 10);
    EXPECT_EQ(parallel[i].first, serial[i].first);
    EXPECT_EQ(parallel[i].second, serial[i].second);
  }
}
