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
// benchmark only; default runs the full sweep. Sweep points run concurrently
// on the parallel driver (`--jobs N` or CIRRUS_JOBS; `--jobs 1` forces
// serial) — each point is its own deterministic single-threaded simulation, so
// the output is identical for every jobs value.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/blame.hpp"
#include "bench/registry.hpp"
#include "core/driver.hpp"
#include "core/options.hpp"
#include "core/report_bridge.hpp"
#include "core/table.hpp"
#include "npb/npb.hpp"

CIRRUS_BENCH_TARGET_BLAME(fig4, "paper",
                          "NPB class B speedup curves (np=1..64) on DCC, EC2 and Vayu") {
  using namespace cirrus;
  const std::string only = opts.positional().empty() ? "" : opts.positional()[0];
  const int jobs = opts.get_int("jobs", 0);

  // Enumerate every (benchmark, platform, np) sweep point up front...
  struct Point {
    const npb::BenchmarkInfo* bench;
    const plat::Platform* platform;
    int np;
  };
  std::vector<Point> points;
  const auto& platforms = plat::study_platforms();
  for (const auto& b : npb::all_benchmarks()) {
    if (!only.empty() && b.name != only) continue;
    for (const auto& platform : platforms) {
      for (const int np : b.valid_np) {
        if (np > platform.total_slots()) continue;
        points.push_back({&b, &platform, np});
      }
    }
  }

  // ...simulate them concurrently (each its own engine)...
  struct Run {
    double elapsed = 0;
    std::uint64_t events = 0;
  };
  const std::vector<Run> runs = core::run_sweep<Run>(
      points.size(),
      [&](std::size_t i) {
        const Point& p = points[i];
        const auto r = npb::run_benchmark(p.bench->name, npb::Class::B, *p.platform, p.np,
                                          /*execute=*/false);
        return Run{r.elapsed_seconds, r.events_processed};
      },
      jobs);
  for (const Run& r : runs) report.events += r.events;

  // ...and assemble the figures in the original deterministic order.
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
        const double t = runs[idx++].elapsed;
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
  struct Probe {
    const char* bench;
    const char* platform;
  };
  for (const Probe& p : {Probe{"CG", "dcc"}, Probe{"CG", "vayu"}, Probe{"EP", "dcc"},
                         Probe{"FT", "dcc"}}) {
    if (!only.empty() && only != p.bench) continue;
    core::RunRequest req;
    req.workload = "npb";
    req.bench = p.bench;
    req.cls = "B";
    req.platform = p.platform;
    req.np = 64;
    bench::run_blame_probe(req, valid::slug(std::string(p.bench) + "." + p.platform),
                           report);
  }
  return 0;
}
