// Correctness tests for the NPB kernels: verification in execute mode,
// rank-count invariance of results (the key property: the same answer no
// matter how the work is decomposed), and model-mode behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "npb/npb.hpp"

namespace npb = cirrus::npb;
namespace plat = cirrus::plat;

namespace {

/// Runs a benchmark in execute mode on vayu and returns the job result.
cirrus::mpi::JobResult run(const std::string& name, npb::Class cls, int np,
                           bool execute = true) {
  return npb::run_benchmark(name, cls, plat::vayu(), np, execute, /*seed=*/7);
}

}  // namespace

TEST(NpbRegistry, HasAllEightBenchmarks) {
  const auto& all = npb::all_benchmarks();
  ASSERT_EQ(all.size(), 8u);
  EXPECT_EQ(all[0].name, "BT");
  EXPECT_EQ(all[7].name, "SP");
  EXPECT_THROW(npb::benchmark("XX"), std::invalid_argument);
}

TEST(NpbRegistry, ClassBReferenceTimesMatchPaperFig3) {
  EXPECT_DOUBLE_EQ(npb::benchmark("BT").ref_seconds(npb::Class::B), 1696.9);
  EXPECT_DOUBLE_EQ(npb::benchmark("EP").ref_seconds(npb::Class::B), 141.5);
  EXPECT_DOUBLE_EQ(npb::benchmark("CG").ref_seconds(npb::Class::B), 244.9);
  EXPECT_DOUBLE_EQ(npb::benchmark("FT").ref_seconds(npb::Class::B), 327.6);
  EXPECT_DOUBLE_EQ(npb::benchmark("IS").ref_seconds(npb::Class::B), 8.6);
  EXPECT_DOUBLE_EQ(npb::benchmark("LU").ref_seconds(npb::Class::B), 1514.7);
  EXPECT_DOUBLE_EQ(npb::benchmark("MG").ref_seconds(npb::Class::B), 72.0);
  EXPECT_DOUBLE_EQ(npb::benchmark("SP").ref_seconds(npb::Class::B), 1936.1);
}

TEST(NpbRegistry, ClassParsing) {
  EXPECT_EQ(npb::class_from_char('B'), npb::Class::B);
  EXPECT_EQ(npb::class_from_char('s'), npb::Class::S);
  EXPECT_THROW(npb::class_from_char('Z'), std::invalid_argument);
  EXPECT_EQ(npb::to_char(npb::Class::W), 'W');
}

// ---------------------------------------------------------------------- EP
TEST(NpbEp, ClassTVerifiesSerial) {
  const auto r = run("EP", npb::Class::T, 1);
  EXPECT_EQ(r.values.at("verified"), 1.0);
}

TEST(NpbEp, ResultsIndependentOfRankCount) {
  const auto r1 = run("EP", npb::Class::T, 1);
  const auto r4 = run("EP", npb::Class::T, 4);
  // EP's batch seeking makes sums bit-identical across np.
  EXPECT_DOUBLE_EQ(r1.values.at("ep_sx"), r4.values.at("ep_sx"));
  EXPECT_DOUBLE_EQ(r1.values.at("ep_sy"), r4.values.at("ep_sy"));
  EXPECT_DOUBLE_EQ(r1.values.at("ep_q1"), r4.values.at("ep_q1"));
}

TEST(NpbEp, ClassSVerifiesOn4Ranks) {
  const auto r = run("EP", npb::Class::S, 4);
  EXPECT_EQ(r.values.at("verified"), 1.0);
}

TEST(NpbEp, NearPerfectScaling) {
  const auto r1 = run("EP", npb::Class::S, 1, /*execute=*/false);
  const auto r8 = run("EP", npb::Class::S, 8, /*execute=*/false);
  EXPECT_GT(r1.elapsed_seconds / r8.elapsed_seconds, 6.0);
}

// ---------------------------------------------------------------------- IS
TEST(NpbIs, ClassTSortsAndVerifies) {
  for (int np : {1, 2, 4}) {
    const auto r = run("IS", npb::Class::T, np);
    EXPECT_EQ(r.values.at("verified"), 1.0) << "np=" << np;
  }
}

TEST(NpbIs, KeySumInvariantAcrossRankCounts) {
  const auto r1 = run("IS", npb::Class::T, 1);
  const auto r2 = run("IS", npb::Class::T, 2);
  const auto r4 = run("IS", npb::Class::T, 4);
  EXPECT_DOUBLE_EQ(r1.values.at("is_key_sum"), r2.values.at("is_key_sum"));
  EXPECT_DOUBLE_EQ(r1.values.at("is_key_sum"), r4.values.at("is_key_sum"));
}

TEST(NpbIs, ClassSVerifies) {
  const auto r = run("IS", npb::Class::S, 4);
  EXPECT_EQ(r.values.at("verified"), 1.0);
}

// ---------------------------------------------------------------------- CG
TEST(NpbCg, ClassSZetaMatchesPublishedNpbValue) {
  const auto r = run("CG", npb::Class::S, 1);
  // NPB 3.3 class S verification value.
  EXPECT_NEAR(r.values.at("cg_zeta"), 8.5971775078648, 1e-9);
  EXPECT_EQ(r.values.at("verified"), 1.0);
}

TEST(NpbCg, ClassSZetaIndependentOfRankCount) {
  const auto r1 = run("CG", npb::Class::S, 1);
  for (int np : {2, 4, 8}) {
    const auto r = run("CG", npb::Class::S, np);
    EXPECT_NEAR(r.values.at("cg_zeta"), r1.values.at("cg_zeta"), 1e-10) << "np=" << np;
    EXPECT_EQ(r.values.at("verified"), 1.0) << "np=" << np;
  }
}

TEST(NpbCg, ClassTSelfConsistent) {
  const auto r1 = run("CG", npb::Class::T, 1);
  const auto r4 = run("CG", npb::Class::T, 4);
  EXPECT_NEAR(r1.values.at("cg_zeta"), r4.values.at("cg_zeta"), 1e-10);
  EXPECT_GT(r1.values.at("cg_zeta"), 0.0);
}

TEST(NpbCg, RejectsNonPowerOfTwoNp) {
  // NPB's rule; the model exchange's partner rank ^ stride would fall off
  // the communicator.
  for (const bool execute : {false, true}) {
    for (const int np : {3, 6, 12}) {
      EXPECT_THROW(run("CG", npb::Class::S, np, execute), std::invalid_argument)
          << "np=" << np << " execute=" << execute;
    }
  }
}

// ---------------------------------------------------------------------- FT
TEST(NpbFt, ClassTChecksumsInvariantAcrossRankCounts) {
  const auto r1 = run("FT", npb::Class::T, 1);
  const auto r4 = run("FT", npb::Class::T, 4);
  EXPECT_EQ(r1.values.at("verified"), 1.0);
  EXPECT_EQ(r4.values.at("verified"), 1.0);
  for (int it = 1; it <= 4; ++it) {
    const auto key = "ft_chk_re_" + std::to_string(it);
    EXPECT_NEAR(r1.values.at(key), r4.values.at(key),
                1e-7 * std::abs(r1.values.at(key)) + 1e-9)
        << key;
  }
}

TEST(NpbFt, ChecksumsDecayOverIterations) {
  // The evolution factors are a decaying Gaussian filter; spectral energy
  // (and generally the checksum magnitude drift) must stay bounded.
  const auto r = run("FT", npb::Class::T, 2);
  EXPECT_EQ(r.values.at("verified"), 1.0);
  EXPECT_TRUE(std::isfinite(r.values.at("ft_chk_re_4")));
}

TEST(NpbFt, RejectsNonPowerOfTwoNp) {
  EXPECT_THROW(run("FT", npb::Class::T, 3), std::invalid_argument);
}

// ---------------------------------------------------------------------- MG
TEST(NpbMg, ResidualDropsAndVerifies) {
  for (int np : {1, 2, 8}) {
    const auto r = run("MG", npb::Class::T, np);
    EXPECT_EQ(r.values.at("verified"), 1.0) << "np=" << np;
  }
}

TEST(NpbMg, ResidualInvariantAcrossRankCounts) {
  const auto r1 = run("MG", npb::Class::T, 1);
  const auto r8 = run("MG", npb::Class::T, 8);
  EXPECT_NEAR(r1.values.at("mg_rnorm"), r8.values.at("mg_rnorm"),
              1e-9 + 1e-6 * std::abs(r1.values.at("mg_rnorm")));
}

TEST(NpbMg, ClassSVerifies) {
  const auto r = run("MG", npb::Class::S, 4);
  EXPECT_EQ(r.values.at("verified"), 1.0);
}

// ------------------------------------------------------------------ BT/SP
TEST(NpbBt, RunsAndResidualInvariant) {
  const auto r1 = run("BT", npb::Class::T, 1);
  const auto r4 = run("BT", npb::Class::T, 4);
  EXPECT_EQ(r1.values.at("verified"), 1.0);
  EXPECT_NEAR(r1.values.at("bt_rnorm"), r4.values.at("bt_rnorm"),
              1e-8 + 1e-6 * std::abs(r1.values.at("bt_rnorm")));
}

TEST(NpbBt, RejectsNonSquareNp) {
  EXPECT_THROW(run("BT", npb::Class::T, 2), std::invalid_argument);
}

TEST(NpbSp, RunsAndResidualInvariant) {
  const auto r1 = run("SP", npb::Class::T, 1);
  const auto r4 = run("SP", npb::Class::T, 4);
  EXPECT_EQ(r4.values.at("verified"), 1.0);
  EXPECT_NEAR(r1.values.at("sp_rnorm"), r4.values.at("sp_rnorm"),
              1e-8 + 1e-6 * std::abs(r1.values.at("sp_rnorm")));
}

// ---------------------------------------------------------------------- LU
TEST(NpbLu, RunsAndResidualInvariant) {
  const auto r1 = run("LU", npb::Class::T, 1);
  const auto r4 = run("LU", npb::Class::T, 4);
  EXPECT_EQ(r4.values.at("verified"), 1.0);
  EXPECT_NEAR(r1.values.at("lu_rnorm"), r4.values.at("lu_rnorm"),
              1e-8 + 1e-6 * std::abs(r1.values.at("lu_rnorm")));
}

TEST(NpbLu, SsorResidualShrinks) {
  // The relaxation converges: later-iteration updates are smaller.
  const auto r = run("LU", npb::Class::T, 4);
  EXPECT_LT(r.values.at("lu_rnorm"), 10.0);
  EXPECT_GT(r.values.at("lu_rnorm"), 0.0);
}

// ----------------------------------------------------------------- model
TEST(NpbModel, ModelModeIsCheapAndTimesLikeExecuteMode) {
  // Model mode must produce comparable virtual time without doing the math.
  const auto exec = run("IS", npb::Class::T, 4, /*execute=*/true);
  const auto model = run("IS", npb::Class::T, 4, /*execute=*/false);
  EXPECT_NEAR(model.elapsed_seconds / exec.elapsed_seconds, 1.0, 0.35);
}

TEST(NpbModel, SerialClassBElapsedMatchesCalibration) {
  // On DCC, one-rank class B model runs must land near the paper's Fig 3
  // absolute times (the calibration anchor). IS is the cheapest to check.
  auto r = npb::run_benchmark("IS", npb::Class::B, plat::dcc(), 1, /*execute=*/false);
  EXPECT_NEAR(r.elapsed_seconds, 8.6, 1.0);
}

TEST(NpbModel, SpeedupEmergesOnVayu) {
  const auto r1 = npb::run_benchmark("MG", npb::Class::A, plat::vayu(), 1, false);
  const auto r8 = npb::run_benchmark("MG", npb::Class::A, plat::vayu(), 8, false);
  const double speedup = r1.elapsed_seconds / r8.elapsed_seconds;
  EXPECT_GT(speedup, 3.0);
  EXPECT_LT(speedup, 8.5);
}
