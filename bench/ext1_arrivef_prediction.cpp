// Extension (paper §II): ARRIVE-F cross-platform runtime prediction.
//
// Profiles NPB benchmarks on one platform with IPM, predicts their runtime
// on the other platforms by repricing computation/communication/I-O, and
// compares against the simulated ground truth — the workload-classification
// machinery the paper proposes for deciding what to cloud-burst. Every
// profile and ground-truth run is a RunRequest run by bench::sweep.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/job.hpp"
#include "bench/registry.hpp"
#include "cloud/cloud.hpp"
#include "core/table.hpp"
#include "npb/npb.hpp"

CIRRUS_BENCH_TARGET(ext1, "ext",
                    "ARRIVE-F cross-platform runtime prediction accuracy (NPB class A)") {
  using namespace cirrus;
  const char* benches[] = {"EP", "CG", "FT", "IS", "MG", "LU"};
  const char* targets[] = {"dcc", "ec2"};
  const int np = 16;

  // Per benchmark: the vayu profile, then the ground truth on each target.
  std::vector<core::RunRequest> reqs;
  for (const char* bench : benches) {
    for (const char* p : {"vayu", targets[0], targets[1]}) {
      reqs.push_back({.workload = "npb", .bench = bench, .cls = "A", .platform = p, .np = np});
    }
  }
  struct Run {
    double seconds = 0;
    ipm::JobReport ipm;
  };
  const auto runs = bench::sweep(reqs, opts, report, [](const serve::RunOutcome& o) {
    return Run{o.result.elapsed_seconds, o.result.ipm};
  });

  core::Table t({"bench", "profiled on", "target", "predicted (s)", "actual (s)", "error %",
                 "slowdown"});
  const auto src = plat::vayu();
  double worst = 0, sum = 0;
  int n = 0;
  std::size_t idx = 0;
  for (const char* bench : benches) {
    const auto& traits = npb::benchmark(bench).traits;
    const auto& prof = runs[idx++].ipm;
    for (const char* target : targets) {
      const auto dst = plat::by_name(target);
      const auto pred = cloud::predict_runtime(prof, src, dst, np, -1, -1, traits);
      const double actual = runs[idx++].seconds;
      const double err = 100.0 * (pred.seconds - actual) / actual;
      const double slow = cloud::cloud_slowdown(prof, src, dst, np, traits);
      t.row().add(bench).add("vayu").add(target).add(pred.seconds, 1).add(actual, 1).add(err, 1)
          .add(slow, 2);
      report.add(std::string("pred_err_pct_") + bench, target, np, err, "%")
          .add(std::string("cloud_slowdown_") + bench, target, np, slow);
      worst = std::max(worst, std::abs(err));
      sum += std::abs(err);
      ++n;
    }
  }
  std::printf("## ext1: ARRIVE-F runtime prediction accuracy (NPB class A, np=%d)\n%s", np,
              t.str().c_str());
  std::printf("\nmean |error| %.1f%%, worst |error| %.1f%% "
              "(ARRIVE-F reports ~90%%+ accuracy for CPU/comm-profiled codes)\n",
              sum / n, worst);
  report.add("mean_abs_err_pct", "-", np, sum / n, "%")
      .add("worst_abs_err_pct", "-", np, worst, "%");
  return 0;
}
