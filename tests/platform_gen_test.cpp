// The generation dimension: gen-2020 platform models, name round-trips,
// canonical-key pinning (gen-2012 keys byte-identical to the pre-generation
// grammar), the headline gap-narrowing result, and manifest determinism of
// the ext8 gap suite under --jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/metum/metum.hpp"
#include "bench/registry.hpp"
#include "core/options.hpp"
#include "core/request.hpp"
#include "mpi/minimpi.hpp"
#include "npb/npb.hpp"
#include "platform/platform.hpp"
#include "valid/manifest.hpp"

namespace {

using namespace cirrus;

TEST(PlatformGen, KnownNamesRoundTrip) {
  const auto& names = plat::known_names();
  ASSERT_EQ(names.size(), 5U);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const auto& name : names) {
    const auto p = plat::by_name(name);
    EXPECT_EQ(p.name, name);
    EXPECT_TRUE(p.generation == 2012 || p.generation == 2020) << name;
  }
  EXPECT_EQ(plat::by_name("vayu").generation, 2012);
  EXPECT_EQ(plat::by_name("dcc").generation, 2012);
  EXPECT_EQ(plat::by_name("ec2").generation, 2012);
  EXPECT_EQ(plat::by_name("vayu2020").generation, 2020);
  EXPECT_EQ(plat::by_name("ec2_2020").generation, 2020);
  // Case-insensitive like the rest of the CLI surface.
  EXPECT_EQ(plat::by_name("VAYU2020").name, "vayu2020");

  EXPECT_EQ(plat::generation_platforms(2012).size(), 3U);
  EXPECT_EQ(plat::generation_platforms(2020).size(), 2U);
  EXPECT_EQ(plat::all_platforms().size(), 5U);
  EXPECT_THROW(plat::generation_platforms(2016), std::invalid_argument);

  // study_platforms() is frozen: the 887 committed pins sweep exactly the
  // 2012 trio, so the 2020 models must never leak into it.
  const auto study = plat::study_platforms();
  ASSERT_EQ(study.size(), 3U);
  for (const auto& p : study) EXPECT_EQ(p.generation, 2012) << p.name;
}

TEST(PlatformGen, UnknownNameErrorListsValidNames) {
  try {
    plat::by_name("azure");
    FAIL() << "by_name must throw for unknown platforms";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("azure"), std::string::npos) << msg;
    EXPECT_NE(msg.find("valid:"), std::string::npos) << msg;
    for (const auto& name : plat::known_names()) {
      EXPECT_NE(msg.find(name), std::string::npos) << msg;
    }
  }
}

TEST(PlatformGen, GenerationNameMapsAcrossGenerations) {
  EXPECT_EQ(plat::generation_name("vayu", 2020), "vayu2020");
  EXPECT_EQ(plat::generation_name("ec2", 2020), "ec2_2020");
  EXPECT_EQ(plat::generation_name("vayu2020", 2020), "vayu2020");
  EXPECT_EQ(plat::generation_name("vayu2020", 2012), "vayu");
  EXPECT_EQ(plat::generation_name("ec2_2020", 2012), "ec2");
  EXPECT_EQ(plat::generation_name("dcc", 2012), "dcc");
  EXPECT_THROW(plat::generation_name("dcc", 2020), std::invalid_argument);
  EXPECT_THROW(plat::generation_name("bluegene", 2020), std::invalid_argument);
}

TEST(PlatformGen, Gen2012CanonicalKeyByteIdentical) {
  // The exact canonical key the grammar produced before generations existed.
  // Any change here silently invalidates every cached result and golden.
  const core::RunRequest req;
  EXPECT_EQ(req.canonical_key(),
            "bench=CG ckpt=0 class=S eager=16384 execute=0 horizon=2592000 leaf=4 "
            "mtbf=0 np=8 oversub=1 placement=contig platform=vayu requeue=60 rpn=-1 "
            "sched=heap4 seed=1 storage=nfs topo=crossbar wf-sched=- wf-shape=- "
            "wf-width=- workload=npb");
}

// The headline result of the gap study, asserted directly: at np=64 the
// cloud/HPC ratio of the communication-bound workloads shrinks from gen-2012
// to gen-2020 (EFA-class NIC + placement groups + no HT sharing).
TEST(PlatformGen, GapNarrowsFrom2012To2020) {
  const auto npb_seconds = [](const char* platform, int np) {
    return npb::run_benchmark("CG", npb::Class::B, plat::by_name(platform), np,
                              /*execute=*/false)
        .elapsed_seconds;
  };
  const auto metum_seconds = [](const char* platform, int np) {
    mpi::JobConfig cfg;
    cfg.platform = plat::by_name(platform);
    cfg.np = np;
    cfg.execute = false;
    cfg.traits = metum::traits();
    cfg.name = std::string("metum.") + platform;
    auto r = mpi::run_job(cfg, [](mpi::RankEnv& env) { metum::run(env); });
    return r.values.at("um_warmed_seconds");
  };

  const double cg_2012 = npb_seconds("ec2", 64) / npb_seconds("vayu", 64);
  const double cg_2020 = npb_seconds("ec2_2020", 64) / npb_seconds("vayu2020", 64);
  EXPECT_LT(cg_2020, cg_2012) << "CG gap must narrow 2012 -> 2020";
  EXPECT_GT(cg_2012, 1.0) << "gen-2012 cloud must trail HPC on CG at np=64";

  const double um_2012 = metum_seconds("ec2", 64) / metum_seconds("vayu", 64);
  const double um_2020 = metum_seconds("ec2_2020", 64) / metum_seconds("vayu2020", 64);
  EXPECT_LT(um_2020, um_2012) << "MetUM gap must narrow 2012 -> 2020";
  EXPECT_GT(um_2012, 1.0) << "gen-2012 cloud must trail HPC on MetUM at np=64";
}

std::string run_ext8_manifest(const std::vector<const char*>& extra_argv) {
  const auto* target = bench::find_target("ext8");
  EXPECT_NE(target, nullptr);
  std::vector<const char*> argv = {"ext8", "--quick"};
  argv.insert(argv.end(), extra_argv.begin(), extra_argv.end());
  const core::Options opts(static_cast<int>(argv.size()), argv.data());
  valid::RunReport report;
  report.target = "ext8";
  EXPECT_EQ(target->fn(opts, report), 0);
  valid::ManifestContext ctx;
  ctx.suite = "gap";
  ctx.git_sha = "test";
  ctx.include_nondeterministic = false;
  return valid::manifest_json(ctx, {report}, {});
}

TEST(PlatformGen, GapManifestByteIdenticalAcrossJobs) {
  // Each sweep point is its own deterministic simulation: the thread count
  // of the sweep driver must never change a byte of the manifest.
  const std::string serial = run_ext8_manifest({"--jobs", "1"});
  const std::string threaded = run_ext8_manifest({"--jobs", "8"});
  EXPECT_EQ(serial, threaded);
}

}  // namespace
