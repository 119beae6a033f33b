// Reproduces paper Figure 4: NPB class B speedup curves (relative to one
// process on the same platform) for all eight benchmarks on DCC, EC2 and
// Vayu, np = 1..64.
//
// Expected shapes (paper §V-B):
//  * EP: near-linear on Vayu and DCC; EC2 fluctuates but trends up.
//  * FT: Vayu near-linear; DCC/EC2 scale poorly.
//  * DCC drops at 16 processes (first GigE crossing), partially recovering
//    at higher np as Alltoall message sizes shrink.
//  * EC2 drops at 16 (HyperThreading on the first node), not 32.
//  * CG on DCC drops at 8 (masked NUMA); IS scales poorly everywhere.
//
// Pass a benchmark name (e.g. `cirrus_bench --targets fig4 CG`) to run one
// benchmark only; default runs the full sweep. Every (benchmark, platform,
// np) point is a RunRequest run by bench::sweep on `--jobs` workers (`--jobs
// 1` forces serial) — each point is its own deterministic single-threaded
// simulation, so the output is identical for every jobs value.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/job.hpp"
#include "bench/registry.hpp"
#include "core/options.hpp"
#include "core/report_bridge.hpp"
#include "core/table.hpp"
#include "npb/npb.hpp"

CIRRUS_BENCH_TARGET_BLAME(fig4, "paper",
                          "NPB class B speedup curves (np=1..64) on DCC, EC2 and Vayu") {
  using namespace cirrus;
  const std::string only = opts.positional().empty() ? "" : opts.positional()[0];
  const auto platforms = plat::study_platforms();

  // Enumerate every (benchmark, platform, np) sweep point up front, simulate
  // them concurrently, then assemble the figures in the same order.
  std::vector<core::RunRequest> reqs;
  for (const auto& b : npb::all_benchmarks()) {
    if (!only.empty() && b.name != only) continue;
    for (const auto& platform : platforms) {
      for (const int np : b.valid_np) {
        if (np > platform.total_slots()) continue;
        reqs.push_back(
            {.workload = "npb", .bench = b.name, .cls = "B", .platform = platform.name, .np = np});
      }
    }
  }
  const auto secs = bench::sweep(reqs, opts, report, [](const serve::RunOutcome& o) {
    return o.result.elapsed_seconds;
  });

  std::size_t idx = 0;
  for (const auto& b : npb::all_benchmarks()) {
    if (!only.empty() && b.name != only) continue;
    core::Figure fig;
    fig.id = "fig4-" + b.name;
    fig.title = b.name + " class B speedup comparison on three different platforms";
    fig.xlabel = "# of cores";
    fig.ylabel = "Speedup";
    for (const auto& platform : platforms) {
      core::Series s;
      s.name = platform.name;
      double t1 = 0;
      for (const int np : b.valid_np) {
        if (np > platform.total_slots()) continue;
        const double t = secs[idx++];
        if (np == 1) t1 = t;
        s.points.emplace_back(np, t1 / t);
      }
      fig.series.push_back(std::move(s));
    }
    std::fputs(fig.table_str().c_str(), stdout);
    if (const auto dir = opts.get("csv")) {
      std::printf("wrote %s\n", core::write_figure_csv(fig, *dir).c_str());
    }
    std::fputs("\n", stdout);
    core::figure_to_report(fig, "speedup_" + b.name, "", report);
  }

  // Critical-path blame probes: one traced re-run of the scaling endpoints
  // whose shapes the paper explains causally — CG@64 on DCC (the GigE
  // crossing: fabric should out-blame compute) vs Vayu (IB: it should not),
  // EP@64 on DCC (embarrassingly parallel: compute dominates everywhere)
  // and FT@64 on DCC (Alltoall-bound). Pinned in critpath.ref.
  for (const auto& [kernel, platform] : {std::pair{"CG", "dcc"}, std::pair{"CG", "vayu"},
                                         std::pair{"EP", "dcc"}, std::pair{"FT", "dcc"}}) {
    if (!only.empty() && only != kernel) continue;
    bench::run_blame_probe(
        {.workload = "npb", .bench = kernel, .cls = "B", .platform = platform, .np = 64},
        valid::slug(std::string(kernel) + "." + platform), report);
  }
  return 0;
}
