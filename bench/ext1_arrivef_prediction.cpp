// Extension (paper §II): ARRIVE-F cross-platform runtime prediction.
//
// Profiles NPB benchmarks on one platform with IPM, predicts their runtime
// on the other platforms by repricing computation/communication/I-O, and
// compares against the simulated ground truth — the workload-classification
// machinery the paper proposes for deciding what to cloud-burst.
#include <cmath>
#include <cstdio>

#include "bench/registry.hpp"
#include "cloud/cloud.hpp"
#include "core/table.hpp"
#include "npb/npb.hpp"

CIRRUS_BENCH_TARGET(ext1, "ext",
                    "ARRIVE-F cross-platform runtime prediction accuracy (NPB class A)") {
  using namespace cirrus;
  const char* benches[] = {"EP", "CG", "FT", "IS", "MG", "LU"};
  const int np = 16;

  core::Table t({"bench", "profiled on", "target", "predicted (s)", "actual (s)", "error %",
                 "slowdown"});
  double worst = 0, sum = 0;
  int n = 0;
  for (const char* bench : benches) {
    const auto src = plat::vayu();
    const auto prof = npb::run_benchmark(bench, npb::Class::A, src, np, /*execute=*/false);
    report.events += prof.events_processed;
    for (const char* target : {"dcc", "ec2"}) {
      const auto dst = plat::by_name(target);
      const auto pred = cloud::predict_runtime(prof.ipm, src, dst, np, -1, -1,
                                               npb::benchmark(bench).traits);
      const auto run = npb::run_benchmark(bench, npb::Class::A, dst, np, false);
      report.events += run.events_processed;
      const double actual = run.elapsed_seconds;
      const double err = 100.0 * (pred.seconds - actual) / actual;
      const double slow = cloud::cloud_slowdown(prof.ipm, src, dst, np,
                                                npb::benchmark(bench).traits);
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
