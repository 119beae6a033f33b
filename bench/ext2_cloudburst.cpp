// Extension (paper §II/§VI): cloud-bursting an ANUPBS-like facility queue.
//
// A saturated 64-core facility receives a stream of jobs with ARRIVE-F-style
// cloud-slowdown classifications. We compare queue waits without bursting,
// with bursting at on-demand prices, and the spot-price cost of the same
// burst capacity — the paper's planned "integrate EC2 spot-pricing into
// ANUPBS" experiment. ARRIVE-F's own evaluation reports up to 33% better
// average job waiting times; bursting the good candidates does far better
// here because the cloud adds capacity rather than reshuffling it.
#include <cstdio>

#include "bench/registry.hpp"
#include "cloud/cloud.hpp"
#include "core/table.hpp"
#include "sim/rng.hpp"

CIRRUS_BENCH_TARGET(ext2, "ext",
                    "Cloud-bursting a saturated 64-core facility queue, with spot pricing") {
  using namespace cirrus;

  // A bursty Monday-morning arrival pattern: 40 jobs in two waves.
  sim::Rng rng(2012);
  std::vector<cloud::JobSpec> jobs;
  for (int i = 0; i < 40; ++i) {
    cloud::JobSpec j;
    j.name = "job" + std::to_string(i);
    j.cores = 8 << rng.below(3);  // 8, 16 or 32 cores
    j.runtime_local_s = 1800 + rng.uniform() * 7200;
    // Mix of compute-bound (good candidates) and comm-bound (bad) jobs.
    j.cloud_slowdown = rng.chance(0.55) ? 1.05 + rng.uniform() * 0.4 : 2.0 + rng.uniform() * 2.0;
    j.submit_s = (i < 25 ? 0.0 : 14400.0) + rng.uniform() * 3600.0;
    // A fifth of the stream are short debugging/validation jobs (paper §II)
    // submitted urgent: the ANUPBS suspend-resume scheme serves them first.
    if (i % 5 == 0) {
      j.runtime_local_s = 300 + rng.uniform() * 600;
      j.priority = 5;
    }
    jobs.push_back(j);
  }

  core::Table t({"policy", "mean wait (min)", "urgent wait (min)", "max wait (min)",
                 "makespan (h)", "cloud jobs", "cloud cost ($)"});
  cloud::ScheduleResult burst_result;
  struct Policy {
    const char* name;
    const char* key;  ///< metric platform label
    double threshold;
    bool suspend_resume;
  };
  const Policy policies[] = {
      {"FIFO, local only", "fifo_local", -1.0, false},
      {"suspend-resume, local only", "sr_local", -1.0, true},
      {"suspend-resume + burst @1h", "sr_burst_1h", 3600.0, true},
      {"suspend-resume + burst @15m", "sr_burst_15m", 900.0, true},
  };
  for (const auto& policy : policies) {
    cloud::BatchScheduler sched({.burst_wait_threshold_s = policy.threshold,
                                 .suspend_resume = policy.suspend_resume});
    const auto r = sched.run(jobs);
    // Mean wait of the urgent debugging/validation jobs specifically.
    double urgent_wait = 0;
    int urgent_n = 0;
    for (const auto& out : r.jobs) {
      for (const auto& j : jobs) {
        if (j.name == out.name && j.priority > 0) {
          urgent_wait += out.wait_s;
          ++urgent_n;
        }
      }
    }
    t.row().add(policy.name).add(r.mean_wait_s / 60, 1)
        .add(urgent_n > 0 ? urgent_wait / urgent_n / 60 : 0, 1).add(r.max_wait_s / 60, 1)
        .add(r.makespan_s / 3600, 2).add(r.cloud_jobs).add(r.cloud_cost_usd, 2);
    report.add("mean_wait_min", policy.key, 0, r.mean_wait_s / 60, "min")
        .add("urgent_wait_min", policy.key, 0,
             urgent_n > 0 ? urgent_wait / urgent_n / 60 : 0, "min")
        .add("max_wait_min", policy.key, 0, r.max_wait_s / 60, "min")
        .add("makespan_h", policy.key, 0, r.makespan_s / 3600, "h")
        .add("cloud_jobs", policy.key, 0, r.cloud_jobs)
        .add("cloud_cost_usd", policy.key, 0, r.cloud_cost_usd, "$");
    if (policy.threshold > 1800) burst_result = r;
  }
  std::printf("## ext2: cloud-bursting a saturated 64-core facility\n%s", t.str().c_str());

  // Spot-pricing the burst capacity (future work in the paper): integrate
  // the seeded spot-price process over each cloud job's runtime.
  cloud::SpotMarket market(77);
  double spot_cost = 0, instance_hours = 0;
  for (const auto& j : burst_result.jobs) {
    if (!j.ran_on_cloud) continue;
    spot_cost += market.cost(j.start_s, j.finish_s, /*instances=*/1);
    instance_hours += (j.finish_s - j.start_s) / 3600.0;
  }
  std::printf("\nspot pricing the @1h-policy burst (one cc1.4xlarge per 8 cores): "
              "%.1f instance-hours cost $%.2f at spot vs $%.2f on-demand (%.0f%% saved)\n",
              instance_hours, spot_cost, instance_hours * 1.60,
              100.0 * (1.0 - spot_cost / (instance_hours * 1.60)));
  report.add("spot_instance_hours", "-", 0, instance_hours, "h")
      .add("spot_cost_usd", "-", 0, spot_cost, "$")
      .add("spot_saving_pct", "-", 0,
           100.0 * (1.0 - spot_cost / (instance_hours * 1.60)), "%");
  return 0;
}
