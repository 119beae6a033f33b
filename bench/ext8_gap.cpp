// Extension 8: the 10-year gap study. Re-runs the paper's scaling sweeps
// (fig4 NPB kernels, fig5 Chaste, fig6 MetUM) on the cloud and HPC platforms
// of *both* hardware generations and reduces each to a gap ratio
//
//     gap(np) = t_cloud(np) / t_hpc(np)     (same generation, matched np)
//
// per workload and generation, plus a knee metric (the largest np at which
// the cloud platform still holds >= 50% parallel efficiency) and the
// geometric-mean gap at np=64. The headline expectation, calibrated against
// "10 Years Later: Cloud Computing is Closing the Performance Gap" (Guidi
// et al.): from gen-2012 (ec2/vayu) to gen-2020 (ec2_2020/vayu2020) the gap
// narrows for every communication-bound workload and the knee moves right.
//
// Every point is a RunRequest run by bench::sweep on `--jobs` workers; the
// output is identical for every jobs value. `--quick` trims the sweep to
// CG + MetUM at np<=16 (used by the determinism tests).
#include <cmath>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "bench/job.hpp"
#include "bench/registry.hpp"
#include "core/options.hpp"
#include "core/table.hpp"

namespace {

/// One workload of the gap study, reduced to "seconds at (platform, np)".
struct Workload {
  std::string id;      ///< metric suffix: CG, FT, EP, chaste, metum
  std::string kind;    ///< npb | chaste | metum (the RunRequest workload)
  std::vector<int> nps;
};

}  // namespace

CIRRUS_BENCH_TARGET_GEN_BLAME(ext8, "gap", "2012+2020",
                              "Cloud/HPC gap ratios and knees across platform generations") {
  using namespace cirrus;
  const bool quick = opts.has("quick");

  struct Generation {
    const char* label;  ///< metric platform label: gen2012 / gen2020
    const char* hpc;
    const char* cloud;
  };
  const Generation generations[] = {
      {"gen2012", "vayu", "ec2"},
      {"gen2020", "vayu2020", "ec2_2020"},
  };

  std::vector<Workload> workloads = {
      {"CG", "npb", {4, 8, 16, 32, 64}},
      {"FT", "npb", {4, 8, 16, 32, 64}},
      {"EP", "npb", {4, 8, 16, 32, 64}},
      {"chaste", "chaste", {8, 16, 32, 64}},
      {"metum", "metum", {8, 16, 32, 64}},
  };
  if (quick) {
    workloads = {{"CG", "npb", {4, 8, 16}}, {"metum", "metum", {8, 16}}};
  }

  // Enumerate every (generation, workload, side, np) point up front, run the
  // sweep concurrently, then reduce in the same deterministic order. MetUM
  // is measured by its warmed time, like fig6; the rest by elapsed time.
  std::vector<core::RunRequest> reqs;
  for (const auto& gen : generations) {
    for (const auto& wl : workloads) {
      for (const char* name : {gen.hpc, gen.cloud}) {
        for (const int np : wl.nps) {
          core::RunRequest req{.workload = wl.kind, .platform = name, .np = np};
          if (wl.kind == "npb") {
            req.bench = wl.id;
            req.cls = "B";
          }
          reqs.push_back(req);
        }
      }
    }
  }
  const auto secs = bench::sweep(reqs, opts, report, [](const serve::RunOutcome& o) {
    const auto warmed = o.result.values.find("um_warmed_seconds");
    return warmed == o.result.values.end() ? o.result.elapsed_seconds : warmed->second;
  });

  // The knee: largest np where the cloud platform still delivers >= 50%
  // parallel efficiency relative to its own smallest sweep point.
  const double kKneeEff = 0.5;

  const int np_top = workloads[0].nps.back();
  std::vector<double> mean_log_gap(std::size(generations), 0.0);
  std::vector<int> mean_n(std::size(generations), 0);

  std::size_t idx = 0;
  int gi = 0;
  for (const auto& gen : generations) {
    core::Table t({"workload", "np", gen.hpc, gen.cloud, "gap"});
    for (const auto& wl : workloads) {
      const std::size_t hpc_base = idx;
      idx += wl.nps.size();  // hpc side of this workload
      const std::size_t cloud_base = idx;
      idx += wl.nps.size();  // cloud side

      double knee = 0;
      for (std::size_t k = 0; k < wl.nps.size(); ++k) {
        const int np = wl.nps[k];
        const double t_hpc = secs[hpc_base + k];
        const double t_cloud = secs[cloud_base + k];
        const double gap = t_cloud / t_hpc;
        t.row().add(wl.id).add(np).add(t_hpc, 2).add(t_cloud, 2).add(gap, 3);
        report.add("gap_" + wl.id, gen.label, np, gap, "x");
        const double eff = secs[cloud_base] * wl.nps.front() / (t_cloud * np);
        if (eff >= kKneeEff) knee = np;
        if (np == np_top) {
          mean_log_gap[gi] += std::log(gap);
          ++mean_n[gi];
        }
      }
      report.add("knee_" + wl.id, gen.label, 0, knee, "np");
    }
    const double mean = std::exp(mean_log_gap[gi] / mean_n[gi]);
    report.add("gap_mean" + std::to_string(np_top), gen.label, np_top, mean, "x");
    std::printf("%s (cloud=%s, hpc=%s): geometric-mean gap at np=%d: %.3f\n", gen.label,
                gen.cloud, gen.hpc, np_top, mean);
    std::fputs(t.str().c_str(), stdout);
    std::fputs("\n", stdout);
    ++gi;
  }

  // Headline trend table: per-workload gap at the top of the sweep plus the
  // knee, side by side across generations.
  core::Table trend({"workload", "gap@" + std::to_string(np_top) + " 2012",
                     "gap@" + std::to_string(np_top) + " 2020", "knee 2012", "knee 2020"});
  for (const auto& wl : workloads) {
    double gap[2] = {0, 0}, knee[2] = {0, 0};
    for (int g = 0; g < 2; ++g) {
      for (const auto& m : report.metrics) {
        if (m.platform != generations[g].label) continue;
        if (m.name == "gap_" + wl.id && m.ranks == np_top) gap[g] = m.value;
        if (m.name == "knee_" + wl.id) knee[g] = m.value;
      }
    }
    trend.row().add(wl.id).add(gap[0], 3).add(gap[1], 3).add(knee[0], 0).add(knee[1], 0);
  }
  std::fputs("gap trend 2012 -> 2020 (ratios > 1 favour HPC; knee = last np at >= 50% "
             "cloud efficiency)\n",
             stdout);
  std::fputs(trend.str().c_str(), stdout);

  // Blame probes: *why* the gap narrows. CG@64 on the cloud platform of each
  // generation — the gen-2012 run should blame the GigE fabric, the gen-2020
  // run (better interconnect) should shift blame toward compute. Lands in
  // the gap manifest's critpath block, so the gap-trend CI job diffs the
  // blame split run over run alongside the gap ratios. Skipped under
  // --quick (the determinism smoke sweep).
  if (!quick) {
    for (const auto& gen : generations) {
      bench::run_blame_probe(
          {.workload = "npb", .bench = "CG", .cls = "B", .platform = gen.cloud, .np = 64},
          valid::slug(std::string("cg.") + gen.label), report);
    }
  }
  return 0;
}
