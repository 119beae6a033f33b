// Cross-cutting integration and property tests: whole-stack determinism,
// protocol-threshold invariance, platform monotonicity, and failure paths.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/chaste/chaste.hpp"
#include "apps/metum/metum.hpp"
#include "npb/npb.hpp"

namespace mpi = cirrus::mpi;
namespace npb = cirrus::npb;
namespace plat = cirrus::plat;

// ------------------------------------------------------------ determinism
TEST(Determinism, FullNpbJobBitIdenticalAcrossRuns) {
  const auto a = npb::run_benchmark("MG", npb::Class::S, plat::dcc(), 8, true, 7);
  const auto b = npb::run_benchmark("MG", npb::Class::S, plat::dcc(), 8, true, 7);
  EXPECT_EQ(a.elapsed_seconds, b.elapsed_seconds);  // bit-identical, no tolerance
  EXPECT_EQ(a.values.at("mg_rnorm"), b.values.at("mg_rnorm"));
}

TEST(Determinism, SeedChangesTimingNotResults) {
  const auto a = npb::run_benchmark("CG", npb::Class::S, plat::dcc(), 4, true, 7);
  const auto b = npb::run_benchmark("CG", npb::Class::S, plat::dcc(), 4, true, 8);
  EXPECT_NE(a.elapsed_seconds, b.elapsed_seconds);  // different jitter draws
  EXPECT_EQ(a.values.at("cg_zeta"), b.values.at("cg_zeta"));  // same math
}

TEST(Determinism, MetumModelModeBitIdentical) {
  auto run_once = [] {
    mpi::JobConfig c;
    c.platform = plat::ec2();
    c.np = 16;
    c.traits = cirrus::metum::traits();
    c.execute = false;
    c.seed = 99;
    c.name = "det";
    return mpi::run_job(c, [](mpi::RankEnv& env) { cirrus::metum::run(env); });
  };
  EXPECT_EQ(run_once().elapsed_seconds, run_once().elapsed_seconds);
}

// --------------------------------------------------- protocol invariance
TEST(ProtocolInvariance, EagerThresholdDoesNotChangeResults) {
  // Forcing everything through rendezvous (threshold 0) or everything eager
  // (huge threshold) must not change computed values — only timing.
  auto zeta_with = [](std::size_t threshold) {
    mpi::JobConfig c;
    c.platform = plat::vayu();
    c.np = 4;
    c.eager_threshold_bytes = threshold;
    c.execute = true;
    c.name = "thresh";
    double zeta = 0;
    auto r = mpi::run_job(c, [](mpi::RankEnv& env) { npb::run_cg(env, npb::Class::S); });
    (void)zeta;
    return r.values.at("cg_zeta");
  };
  const double z0 = zeta_with(0);
  const double z64k = zeta_with(64 * 1024);
  const double zbig = zeta_with(1u << 30);
  EXPECT_NEAR(z0, 8.5971775078648, 1e-10);  // the published NPB constant
  EXPECT_DOUBLE_EQ(z0, z64k);               // protocol changes: bit-identical
  EXPECT_DOUBLE_EQ(z0, zbig);
}

TEST(ProtocolInvariance, EagerThresholdChangesOnlyTiming) {
  auto time_with = [](std::size_t threshold) {
    mpi::JobConfig c;
    c.platform = plat::dcc();
    c.np = 16;
    c.eager_threshold_bytes = threshold;
    c.execute = false;
    c.name = "thresh";
    return mpi::run_job(c, [](mpi::RankEnv& env) {
             auto& comm = env.world();
             for (int i = 0; i < 10; ++i) {
               const int other = (env.rank() + 8) % 16;
               comm.sendrecv_bytes(other, i, nullptr, 64 << 10, other, i, nullptr, 64 << 10);
             }
           }).elapsed_seconds;
  };
  // Rendezvous adds an RTS/CTS round trip per message: all-rendezvous must
  // be measurably slower than all-eager on a high-latency network.
  EXPECT_GT(time_with(0), time_with(1u << 20));
}

// ----------------------------------------------------- platform ordering
TEST(PlatformOrdering, EveryNpbBenchmarkFastestOnVayu) {
  for (const auto& b : npb::all_benchmarks()) {
    const int np = b.name == "BT" || b.name == "SP" ? 16 : 16;
    const double vayu =
        npb::run_benchmark(b.name, npb::Class::A, plat::vayu(), np, false).elapsed_seconds;
    const double dcc =
        npb::run_benchmark(b.name, npb::Class::A, plat::dcc(), np, false).elapsed_seconds;
    const double ec2 =
        npb::run_benchmark(b.name, npb::Class::A, plat::ec2(), np, false).elapsed_seconds;
    EXPECT_LT(vayu, dcc) << b.name;
    EXPECT_LT(vayu, ec2) << b.name;
  }
}

TEST(PlatformOrdering, CommBoundGapGrowsWithScale) {
  // The virtualised platforms fall further behind as rank counts grow —
  // the paper's central observation.
  auto ratio_at = [](int np) {
    const double vayu =
        npb::run_benchmark("CG", npb::Class::B, plat::vayu(), np, false).elapsed_seconds;
    const double dcc =
        npb::run_benchmark("CG", npb::Class::B, plat::dcc(), np, false).elapsed_seconds;
    return dcc / vayu;
  };
  EXPECT_GT(ratio_at(32), 2.0 * ratio_at(2));
}

// ------------------------------------------------------------- failures
TEST(Failures, MismatchedCollectiveDeadlocks) {
  mpi::JobConfig c;
  c.platform = plat::vayu();
  c.np = 4;
  c.name = "mismatch";
  EXPECT_THROW(mpi::run_job(c,
                            [](mpi::RankEnv& env) {
                              if (env.rank() == 0) {
                                env.world().barrier();  // others never join
                              }
                            }),
               cirrus::sim::DeadlockError);
}

TEST(Failures, ExceptionInOneRankPropagates) {
  mpi::JobConfig c;
  c.platform = plat::vayu();
  c.np = 8;
  c.name = "throw";
  EXPECT_THROW(mpi::run_job(c,
                            [](mpi::RankEnv& env) {
                              env.compute(0.001);
                              if (env.rank() == 3) throw std::runtime_error("rank 3 died");
                              env.world().barrier();
                            }),
               std::runtime_error);
}

TEST(Failures, JobLargerThanPlatformRejected) {
  mpi::JobConfig c;
  c.platform = plat::ec2();  // 4 x 16 = 64 slots
  c.np = 65;
  c.name = "toolarge";
  EXPECT_THROW(mpi::run_job(c, [](mpi::RankEnv&) {}), std::invalid_argument);
}

// ------------------------------------------------- model/execute parity
TEST(ModeParity, ChasteModelAndExecuteShareSectionInventory) {
  auto sections_of = [](bool execute) {
    mpi::JobConfig c;
    c.platform = plat::vayu();
    c.np = 4;
    c.execute = execute;
    c.traits = cirrus::chaste::traits();
    c.name = "parity";
    auto r = mpi::run_job(c, [](mpi::RankEnv& env) { cirrus::chaste::run(env); });
    return r.ipm.section_names();
  };
  const auto exec_sections = sections_of(true);
  const auto model_sections = sections_of(false);
  // Every execute-mode section must exist in the model-mode profile (model
  // mode adds Assembly/Output detail).
  for (const auto& name : {"InputMesh", "Ode", "KSp"}) {
    EXPECT_NE(std::find(exec_sections.begin(), exec_sections.end(), name), exec_sections.end());
    EXPECT_NE(std::find(model_sections.begin(), model_sections.end(), name),
              model_sections.end());
  }
}
