// Reproduces paper Table II: IPM-reported percentage of walltime spent in
// communication (%comm) for the CG, FT and IS class B benchmarks at
// np = 2..64 on DCC, EC2 and Vayu.
//
// Expected shape: %comm rises with np everywhere; DCC worst (GigE + jitter),
// Vayu best; DCC jumps sharply at 16 ranks (two nodes); IS highest overall
// (~98/85/68% at np=64 in the paper).
//
// Sweep points run concurrently on the parallel driver (`--jobs N` or
// CIRRUS_JOBS); the table is identical for every jobs value.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/registry.hpp"
#include "core/driver.hpp"
#include "core/options.hpp"
#include "core/table.hpp"
#include "npb/npb.hpp"

CIRRUS_BENCH_TARGET(tab2, "paper",
                    "IPM %comm for NPB CG/FT/IS class B at np=2..64 per platform") {
  using namespace cirrus;
  const int np_list[] = {2, 4, 8, 16, 32, 64};
  const char* benches[] = {"CG", "FT", "IS"};
  const auto platforms = plat::study_platforms();

  struct Point {
    const char* bench;
    const plat::Platform* platform;
    int np;
  };
  std::vector<Point> points;
  for (const int np : np_list) {
    for (const char* bench : benches) {
      for (const auto& platform : platforms) points.push_back({bench, &platform, np});
    }
  }

  struct Run {
    double comm_pct = 0;
    std::uint64_t events = 0;
  };
  const std::vector<Run> runs = core::run_sweep<Run>(
      points.size(),
      [&](std::size_t i) {
        const Point& p = points[i];
        const auto r =
            npb::run_benchmark(p.bench, npb::Class::B, *p.platform, p.np, /*execute=*/false);
        return Run{r.ipm.comm_pct(), r.events_processed};
      },
      opts.get_int("jobs", 0));
  for (const Run& r : runs) report.events += r.events;

  core::Table t({"np", "CG dcc", "CG ec2", "CG vayu", "FT dcc", "FT ec2", "FT vayu", "IS dcc",
                 "IS ec2", "IS vayu"});
  std::size_t idx = 0;
  for (const int np : np_list) {
    t.row().add(np);
    for (std::size_t b = 0; b < std::size(benches); ++b) {
      for (std::size_t p = 0; p < platforms.size(); ++p) {
        report.add(std::string("comm_pct_") + benches[b], platforms[p].name, np,
                   runs[idx].comm_pct, "%");
        t.add(runs[idx++].comm_pct, 1);
      }
    }
  }
  std::printf("## tab2: IPM %%comm for selected NPB class B benchmarks\n%s", t.str().c_str());
  std::printf("\npaper (np=64): CG 90.3/58.0/21.7  FT 84.4/55.3/20.8  IS 98.1/84.9/68.2 "
              "(dcc/ec2/vayu)\n");
  return 0;
}
