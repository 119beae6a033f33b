// Runs the MetUM global atmosphere proxy — the paper's N320L70 forecast —
// on a chosen platform and rank count, printing the section profile.
//
//   ./build/examples/climate_forecast [platform=vayu] [np=32] [ranks_per_node=-1]
//
// Try:
//   ./build/examples/climate_forecast vayu 32
//   ./build/examples/climate_forecast dcc  32
//   ./build/examples/climate_forecast ec2  32 8     # the paper's "EC2-4"
//
// A bad argument (unknown platform, non-numeric or out-of-range count, a job
// that does not fit the platform) exits 2 with the usage line.
#include <cstdio>

#include "apps/metum/metum.hpp"
#include "demo_args.hpp"

int main(int argc, char** argv) {
  using namespace cirrus;
  const auto args = demo::parse_job_args(argc, argv, /*default_np=*/32, /*takes_rpn=*/true,
                                         "[platform=vayu] [np=32] [ranks_per_node=-1]");
  if (!args) return 2;
  const std::string& platform_name = args->platform_name;
  const int np = args->np;
  const int rpn = args->rpn;

  mpi::JobConfig cfg;
  cfg.platform = args->platform;
  cfg.np = np;
  cfg.max_ranks_per_node = rpn;
  cfg.traits = metum::traits();
  cfg.execute = false;  // full paper-scale pattern
  cfg.name = "metum-forecast";

  std::printf("MetUM N320L70, 18 timesteps, %d ranks on %s%s\n", np, platform_name.c_str(),
              rpn > 0 ? (" (" + std::to_string(rpn) + " ranks/node)").c_str() : "");
  auto result = mpi::run_job(cfg, [](mpi::RankEnv& env) { metum::run(env); });

  std::printf("forecast walltime: %.0f s virtual (warmed: %.0f s)\n", result.elapsed_seconds,
              result.values.at("um_warmed_seconds"));
  std::fputs(result.ipm.text_summary("MetUM").c_str(), stdout);

  std::puts("\nper-rank ATM_STEP balance (comp seconds):");
  for (const auto& row : result.ipm.rank_breakdown("ATM_STEP")) {
    std::printf("  rank %2d: %6.1f s %s\n", row.rank, row.comp_s,
                std::string(static_cast<std::size_t>(row.comp_s /
                                                     result.elapsed_seconds * 120),
                            '#')
                    .c_str());
  }
  return 0;
}
