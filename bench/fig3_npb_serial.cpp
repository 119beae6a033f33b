// Reproduces paper Figure 3: NPB class B single-process execution time on
// each platform, normalised to DCC. The paper's absolute DCC walltimes (the
// calibration anchor) are printed alongside the simulated ones.
//
// Expected shape: Vayu and EC2 both well under 1.0 (faster clocks/memory),
// with EC2 slightly slower than Vayu (Xen overhead).
//
// Each (benchmark, platform) point is a RunRequest run by bench::sweep on
// `--jobs` workers; the output is identical for every jobs value.
#include <cstdio>
#include <vector>

#include "bench/job.hpp"
#include "bench/registry.hpp"
#include "core/table.hpp"
#include "npb/npb.hpp"

CIRRUS_BENCH_TARGET(fig3, "paper",
                    "NPB class B single-process time per platform, normalised to DCC") {
  using namespace cirrus;
  const double paper_dcc[] = {1696.9, 141.5, 244.9, 327.6, 8.6, 1514.7, 72.0, 1936.1};
  const char* platforms[] = {"dcc", "ec2", "vayu"};

  std::vector<core::RunRequest> reqs;
  for (const auto& b : npb::all_benchmarks()) {
    for (const char* p : platforms) {
      reqs.push_back({.workload = "npb", .bench = b.name, .cls = "B", .platform = p, .np = 1});
    }
  }
  const auto secs = bench::sweep(reqs, opts, report, [](const serve::RunOutcome& o) {
    return o.result.elapsed_seconds;
  });

  core::Table t({"bench", "dcc (s)", "paper dcc (s)", "ec2 (s)", "vayu (s)", "ec2/dcc",
                 "vayu/dcc"});
  std::size_t idx = 0;
  for (const auto& b : npb::all_benchmarks()) {
    const double dcc = secs[3 * idx];
    const double ec2 = secs[3 * idx + 1];
    const double vayu = secs[3 * idx + 2];
    t.row()
        .add(b.name + ".B.1")
        .add(dcc, 1)
        .add(paper_dcc[idx++], 1)
        .add(ec2, 1)
        .add(vayu, 1)
        .add(ec2 / dcc, 3)
        .add(vayu / dcc, 3);
    report.add("serial_s_" + b.name, "dcc", 1, dcc, "s")
        .add("serial_s_" + b.name, "ec2", 1, ec2, "s")
        .add("serial_s_" + b.name, "vayu", 1, vayu, "s")
        .add("serial_ratio_" + b.name, "ec2", 1, ec2 / dcc)
        .add("serial_ratio_" + b.name, "vayu", 1, vayu / dcc);
  }
  std::printf("## fig3: NPB class B serial time, normalised w.r.t. DCC\n%s", t.str().c_str());
  return 0;
}
