// Tests for the extended MPI API: iprobe, scan, allgatherv, long-message
// broadcast, collective algorithm selection, and the Options parser.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "core/options.hpp"
#include "mpi/minimpi.hpp"

namespace mpi = cirrus::mpi;
namespace plat = cirrus::plat;
namespace core = cirrus::core;

namespace {
mpi::JobConfig cfg(int np) {
  mpi::JobConfig c;
  c.platform = plat::vayu();
  c.np = np;
  c.name = "ext-test";
  return c;
}
}  // namespace

TEST(Iprobe, SeesBufferedMessage) {
  auto r = mpi::run_job(cfg(2), [](mpi::RankEnv& env) {
    auto& c = env.world();
    if (c.rank() == 0) {
      double x = 1;
      c.send(1, 7, &x, 1);
    } else {
      env.compute(0.01);  // let the message land first
      env.report("probe_hit", c.iprobe(0, 7) ? 1 : 0);
      env.report("probe_other_tag", c.iprobe(0, 8) ? 1 : 0);
      env.report("probe_any", c.iprobe(mpi::kAnySource, mpi::kAnyTag) ? 1 : 0);
      double x = 0;
      c.recv(0, 7, &x, 1);
      env.report("probe_after", c.iprobe(0, 7) ? 1 : 0);
    }
  });
  EXPECT_EQ(r.values.at("probe_hit"), 1);
  EXPECT_EQ(r.values.at("probe_other_tag"), 0);
  EXPECT_EQ(r.values.at("probe_any"), 1);
  EXPECT_EQ(r.values.at("probe_after"), 0);
}

class ScanNp : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Sizes, ScanNp, ::testing::Values(1, 2, 3, 5, 8, 13),
                         [](const auto& info) { return "np" + std::to_string(info.param); });

TEST_P(ScanNp, InclusivePrefixSum) {
  const int np = GetParam();
  auto r = mpi::run_job(cfg(np), [](mpi::RankEnv& env) {
    auto& c = env.world();
    const double mine = c.rank() + 1.0;
    const double pre = c.scan_one(mine, mpi::Op::Sum);
    const double expect = (c.rank() + 1.0) * (c.rank() + 2.0) / 2.0;  // 1+2+...+(r+1)
    if (pre != expect) env.report("bad" + std::to_string(c.rank()), pre - expect);
  });
  for (const auto& [k, v] : r.values) FAIL() << k << " off by " << v;
}

TEST_P(ScanNp, PrefixMax) {
  const int np = GetParam();
  auto r = mpi::run_job(cfg(np), [np](mpi::RankEnv& env) {
    auto& c = env.world();
    // Values descend, so the prefix max is always rank 0's value.
    const double mine = static_cast<double>(np - c.rank());
    const double pre = c.scan_one(mine, mpi::Op::Max);
    if (pre != static_cast<double>(np)) env.report("bad" + std::to_string(c.rank()), pre);
  });
  for (const auto& [k, v] : r.values) FAIL() << k << "=" << v;
}

TEST(ScanLargeVectors, RendezvousPathGivesExactPrefixSums) {
  auto c = cfg(6);
  c.eager_threshold_bytes = 0;  // force rendezvous for every scan exchange
  auto r = mpi::run_job(c, [](mpi::RankEnv& env) {
    auto& comm = env.world();
    constexpr int kN = 10000;
    std::vector<double> in(kN), out(kN, 0);
    for (int i = 0; i < kN; ++i) {
      in[static_cast<std::size_t>(i)] = comm.rank() + 1.0;  // constant per rank
    }
    comm.scan(in.data(), out.data(), kN, mpi::Op::Sum);
    // Prefix sum of (1, 2, ..., r+1) at every element.
    const double expect = (comm.rank() + 1.0) * (comm.rank() + 2.0) / 2.0;
    double err = 0;
    for (int i = 0; i < kN; ++i) err += std::abs(out[static_cast<std::size_t>(i)] - expect);
    env.report("err" + std::to_string(comm.rank()), err);
  });
  for (int rk = 0; rk < 6; ++rk) EXPECT_EQ(r.values.at("err" + std::to_string(rk)), 0.0);
}

TEST(Allgatherv, VariableBlockSizes) {
  for (const int np : {1, 2, 4, 7}) {
    auto r = mpi::run_job(cfg(np), [np](mpi::RankEnv& env) {
      auto& c = env.world();
      // Rank r contributes r+1 doubles, all equal to r.
      std::vector<std::size_t> counts(static_cast<std::size_t>(np));
      std::size_t total = 0;
      for (int rr = 0; rr < np; ++rr) {
        counts[static_cast<std::size_t>(rr)] = static_cast<std::size_t>(rr + 1) * sizeof(double);
        total += counts[static_cast<std::size_t>(rr)];
      }
      std::vector<double> mine(static_cast<std::size_t>(c.rank()) + 1,
                               static_cast<double>(c.rank()));
      std::vector<double> all(total / sizeof(double), -1.0);
      c.allgatherv_bytes(mine.data(), all.data(), counts);
      std::size_t o = 0;
      double err = 0;
      for (int rr = 0; rr < np; ++rr) {
        for (int i = 0; i <= rr; ++i) err += std::abs(all[o++] - rr);
      }
      env.report("err" + std::to_string(c.rank()), err);
    });
    for (int rr = 0; rr < np; ++rr) {
      EXPECT_EQ(r.values.at("err" + std::to_string(rr)), 0.0) << "np=" << np << " rank " << rr;
    }
  }
}

TEST(BcastLong, ScatterAllgatherPathDeliversCorrectData) {
  // 1 MiB: above the 512 KiB van de Geijn threshold.
  auto r = mpi::run_job(cfg(8), [](mpi::RankEnv& env) {
    auto& comm = env.world();
    std::vector<double> data(131072, -1.0);
    if (comm.rank() == 3) {
      for (std::size_t i = 0; i < data.size(); ++i) data[i] = std::sin(0.01 * i);
    }
    comm.bcast(data.data(), data.size(), 3);
    double err = 0;
    for (std::size_t i = 0; i < data.size(); ++i) err += std::abs(data[i] - std::sin(0.01 * i));
    env.report("err" + std::to_string(comm.rank()), err);
  });
  for (int rr = 0; rr < 8; ++rr) EXPECT_EQ(r.values.at("err" + std::to_string(rr)), 0.0);
}

TEST(BcastLong, UnevenSizeTailIsHandled) {
  auto r = mpi::run_job(cfg(4), [](mpi::RankEnv& env) {
    auto& comm = env.world();
    // Above the 512 KiB long-message threshold and not divisible by np.
    std::vector<std::uint8_t> data(524291, 0);
    if (comm.rank() == 0) {
      for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i * 7);
    }
    comm.bcast(data.data(), data.size(), 0);
    int bad = 0;
    for (std::size_t i = 0; i < data.size(); ++i) {
      bad += data[i] != static_cast<std::uint8_t>(i * 7);
    }
    env.report("bad" + std::to_string(comm.rank()), bad);
  });
  for (int rr = 0; rr < 4; ++rr) EXPECT_EQ(r.values.at("bad" + std::to_string(rr)), 0.0);
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

// --------------------------------------------------------------- options
TEST(Options, ParsesKeysFlagsAndPositionals) {
  // Positionals come before options; a bare word after `--flag` would be
  // consumed as that flag's value (documented grammar).
  const char* argv[] = {"prog", "npb", "extra", "--bench", "CG", "--np", "32", "--execute"};
  core::Options o(8, argv);
  EXPECT_EQ(o.program(), "prog");
  ASSERT_EQ(o.positional().size(), 2u);
  EXPECT_EQ(o.positional()[0], "npb");
  EXPECT_EQ(o.positional()[1], "extra");
  EXPECT_EQ(o.get_or("bench", "?"), "CG");
  EXPECT_EQ(o.get_int("np", 0), 32);
  EXPECT_TRUE(o.has("execute"));
  EXPECT_FALSE(o.has("missing"));
  EXPECT_EQ(o.get_int("missing", 7), 7);
}

TEST(Options, FlagFollowedByOptionIsAFlag) {
  const char* argv[] = {"prog", "--ipm", "--np", "4"};
  core::Options o(4, argv);
  EXPECT_TRUE(o.has("ipm"));
  EXPECT_FALSE(o.get("ipm").has_value());  // no value attached
  EXPECT_EQ(o.get_int("np", 0), 4);
}

TEST(Options, BadIntegerThrows) {
  const char* argv[] = {"prog", "--np", "many"};
  core::Options o(3, argv);
  EXPECT_THROW((void)o.get_int("np", 0), std::invalid_argument);
}

TEST(Options, GetDoubleParses) {
  const char* argv[] = {"prog", "--rtol", "1e-8"};
  core::Options o(3, argv);
  EXPECT_DOUBLE_EQ(o.get_double("rtol", 0), 1e-8);
}
