// Reproduces paper Figure 6: speedup of MetUM's "warmed" execution time on
// Vayu, DCC, EC2 (fully subscribed) and EC2-4 (spread over 4 nodes),
// relative to 8 cores per platform.
//
// Paper anchors (t8): Vayu 963 s, DCC 1486 s, EC2 812 s, EC2-4 646 s.
// Expected shape: Vayu near-linear; DCC less; EC2 poor; EC2-4 always
// significantly faster below 64 cores (at 32 cores nearly 2x).
//
// Every point is a RunRequest run by bench::sweep on `--jobs` workers; the
// output is identical for every jobs value.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/job.hpp"
#include "bench/registry.hpp"
#include "core/options.hpp"
#include "core/report_bridge.hpp"
#include "core/table.hpp"

CIRRUS_BENCH_TARGET_BLAME(
    fig6, "paper", "MetUM warmed-time speedup over 8 cores (Vayu, DCC, EC2, EC2-4)") {
  using namespace cirrus;
  const int np_list[] = {8, 16, 24, 32, 48, 64};

  struct Config {
    const char* label;
    const char* platform;
    int max_rpn;
    const char* paper_t8;
  };
  const Config configs[] = {
      {"vayu", "vayu", -1, "963"},
      {"dcc", "dcc", -1, "1486"},
      {"EC2", "ec2", -1, "812"},
      {"EC2-4", "ec2", -4, "646"},
  };

  std::vector<core::RunRequest> reqs;
  std::vector<const Config*> config_of;  // index-aligned with reqs
  for (const auto& c : configs) {
    const int slots = plat::by_name(c.platform).total_slots();
    for (const int np : np_list) {
      if (np > slots) continue;
      int rpn = c.max_rpn;
      if (rpn == -4) {
        rpn = (np + 3) / 4;  // EC2-4: always spread over all four nodes
      } else if (std::string(c.label) == "EC2") {
        // Paper §V-C2: memory constraints force at least 2 nodes (3 nodes
        // at 24 ranks), with processes evenly distributed; beyond 2x16 the
        // job spills onto HyperThreads (Table III's rcomp 2.39 at 32).
        const int nodes = np == 24 ? 3 : std::max(2, (np + 15) / 16);
        rpn = (np + nodes - 1) / nodes;
      }
      config_of.push_back(&c);
      reqs.push_back({.workload = "metum", .platform = c.platform, .np = np, .rpn = rpn});
    }
  }
  const auto warmed = bench::sweep(reqs, opts, report, [](const serve::RunOutcome& o) {
    return o.result.values.at("um_warmed_seconds");
  });

  core::Figure fig;
  fig.id = "fig6";
  fig.title = "Speedup of UM ('warmed' execution time) over 8 cores";
  fig.xlabel = "Number of Cores";
  fig.ylabel = "Speedup over 8 cores";

  std::size_t idx = 0;
  for (const auto& c : configs) {
    core::Series s{c.label, {}};
    double t8 = 0;
    while (idx < reqs.size() && config_of[idx] == &c) {
      const int np = reqs[idx].np;
      const double t = warmed[idx++];
      if (np == 8) {
        t8 = t;
        std::printf("%s t8 = %.0f s (paper %s)\n", c.label, t8, c.paper_t8);
        report.add("t8_warmed_s", valid::slug(c.label), 8, t8, "s");
      }
      s.points.emplace_back(np, t8 / t);
    }
    fig.series.push_back(std::move(s));
  }
  std::fputs(fig.table_str().c_str(), stdout);
  if (const auto dir = opts.get("csv")) {
    std::printf("wrote %s\n", cirrus::core::write_figure_csv(fig, *dir).c_str());
  }
  core::figure_to_report(fig, "speedup_warmed", "", report);

  // Blame probe at the 64-core endpoint on DCC (fully subscribed), the
  // configuration whose warmed-time flattening fig6 tabulates.
  bench::run_blame_probe({.workload = "metum", .platform = "dcc", .np = 64}, "metum.dcc", report);
  return 0;
}
