// Reproduces paper Figure 5: speedup of the Chaste cardiac benchmark and of
// its KSp (linear solver) section on Vayu and DCC, relative to 8 cores.
//
// Expected shape: Vayu scales well (the real KSp scales to 1024 cores); DCC
// scales poorly, and the KSp section determines the total's behaviour.
// Paper anchors: t8 total Vayu ~1017 s / DCC ~1599 s; KSp 579 s / 938 s.
// (The published figure's legend transposes the two t8 values; see
// EXPERIMENTS.md.)
//
// Every point is a RunRequest run by bench::sweep on `--jobs` workers; the
// output is identical for every jobs value.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/job.hpp"
#include "bench/registry.hpp"
#include "core/options.hpp"
#include "core/report_bridge.hpp"
#include "core/table.hpp"

CIRRUS_BENCH_TARGET_BLAME(
    fig5, "paper", "Chaste total and KSp-section speedup over 8 cores on Vayu and DCC") {
  using namespace cirrus;
  const int np_list[] = {8, 16, 32, 48, 64};
  const char* platforms[] = {"vayu", "dcc"};

  std::vector<core::RunRequest> reqs;
  for (const char* pname : platforms) {
    for (const int np : np_list) {
      reqs.push_back({.workload = "chaste", .platform = pname, .np = np});
    }
  }
  struct Times {
    double total = 0;
    double ksp = 0;
  };
  const auto times = bench::sweep(reqs, opts, report, [](const serve::RunOutcome& o) {
    return Times{o.result.elapsed_seconds, o.result.ipm.section_wall_seconds("KSp")};
  });

  core::Figure fig;
  fig.id = "fig5";
  fig.title = "Speedup of Chaste and its KSp solver section (over 8 cores)";
  fig.xlabel = "Number of Cores";
  fig.ylabel = "Speedup over 8 cores";

  std::size_t idx = 0;
  for (const char* pname : platforms) {
    core::Series total{std::string(pname) + " total", {}};
    core::Series ksp{std::string(pname) + " KSp", {}};
    double t8 = 0, k8 = 0;
    for (const int np : np_list) {
      const Times& r = times[idx++];
      if (np == 8) {
        t8 = r.total;
        k8 = r.ksp;
        std::printf("%s t8 = %.0f s (paper: %s), KSp t8 = %.0f s (paper: %s)\n", pname, t8,
                    pname[0] == 'v' ? "1017" : "1599", k8, pname[0] == 'v' ? "579" : "938");
        report.add("t8_total_s", pname, 8, t8, "s").add("t8_ksp_s", pname, 8, k8, "s");
      }
      total.points.emplace_back(np, t8 / r.total);
      ksp.points.emplace_back(np, k8 / r.ksp);
    }
    fig.series.push_back(std::move(total));
    fig.series.push_back(std::move(ksp));
  }
  std::fputs(fig.table_str().c_str(), stdout);
  if (const auto dir = opts.get("csv")) {
    std::printf("wrote %s\n", cirrus::core::write_figure_csv(fig, *dir).c_str());
  }
  core::figure_to_report(fig, "speedup", "", report);

  // Blame probe at the 64-core endpoint on DCC, where the KSp Allreduce
  // chain meets the GigE fabric (the scaling collapse fig5 tabulates).
  bench::run_blame_probe({.workload = "chaste", .platform = "dcc", .np = 64}, "chaste.dcc",
                         report);
  return 0;
}
