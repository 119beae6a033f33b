// Extension (paper §VI future work): spot-bidding strategies for bursted
// jobs. Runs the same ~8-hour, 4-instance job under different bids and
// checkpoint intervals, reporting completion time, interruptions and cost —
// the trade-off an ANUPBS + spot integration must navigate.
//
// Two views of the same question:
//   1. analytic  — cloud::run_on_spot's closed-form accounting (no job
//      simulated; restarts modelled as lost tail work).
//   2. emergent  — fault::run_on_spot actually executes a checkpoint-aware
//      simulated job on the EC2 platform model: reclaims arrive as 2-minute
//      warnings, checkpoints charge filesystem write time, each restart
//      re-provisions and boots instances, and lost work is whatever really
//      had to be re-run. Where the two tables disagree, the analytic model
//      is the one that is wrong.
// Both fill the same SpotRun fields, so the columns line up row for row.
#include <cstdio>
#include <vector>

#include "bench/registry.hpp"
#include "cloud/cloud.hpp"
#include "core/driver.hpp"
#include "core/options.hpp"
#include "core/table.hpp"
#include "fault/fault.hpp"
#include "platform/platform.hpp"

namespace {

using namespace cirrus;

constexpr int kInstances = 4;
constexpr double kOnDemand = 1.60;
constexpr int kSteps = 96;  // ~5 min of work per step at the target runtime

struct Strategy {
  const char* name;
  const char* key;  ///< metric platform label
  double bid;
  double ckpt_s;
};
constexpr Strategy kStrategies[] = {
    {"spot, high bid", "high_bid", 1.20, 900},
    {"spot, mean bid", "mean_bid", 0.62, 900},
    {"spot, low bid", "low_bid", 0.45, 900},
    {"spot, low bid, no ckpt", "low_bid_nockpt", 0.45, 0},
    {"spot, low bid, 5min ckpt", "low_bid_5m", 0.45, 300},
};
constexpr int kSeeds = 5;

/// The bursted job: a BSP loop of compute + a small allreduce, with ~256 MiB
/// of checkpointable state per rank. Model mode (no real data), so the
/// checkpoint blobs are sized but dataless.
void burst_body(mpi::RankEnv& env) {
  constexpr std::size_t kStateBytes = 256ULL << 20;
  const double step_ref = 8 * 3600.0 / kSteps;
  int step0 = 0;
  if (env.checkpointing()) {
    if (const int done = env.restore_checkpoint(nullptr, kStateBytes); done >= 0) {
      step0 = done + 1;
    }
  }
  for (int step = step0; step < kSteps; ++step) {
    env.compute(step_ref);
    double v = 1.0;
    (void)env.world().allreduce_one(v, mpi::Op::Sum);
    if (env.checkpointing()) env.maybe_checkpoint(step, nullptr, kStateBytes);
  }
}

mpi::JobConfig burst_config() {
  mpi::JobConfig cfg;
  cfg.name = "spot_burst";
  cfg.platform = plat::ec2();
  cfg.np = 8;
  cfg.max_ranks_per_node = 2;  // 4 instances, paper-style undersubscription
  return cfg;
}

struct Avg {
  double finish = 0, intr = 0, attempts = 0, lost = 0, boot = 0, od = 0, cost = 0;
  void operator+=(const cloud::SpotRun& r) {
    finish += r.finish_s;
    intr += r.interruptions;
    attempts += r.attempts;
    lost += r.lost_work_s;
    boot += r.boot_overhead_s;
    od += r.finished_on_demand ? 1.0 : 0.0;
    cost += r.cost_usd;
  }
  void scale(double f) {
    finish *= f;
    intr *= f;
    attempts *= f;
    lost *= f;
    boot *= f;
    od *= f;
    cost *= f;
  }
};

void print_table(const char* title, const char* prefix, const std::vector<Avg>& rows,
                 double od_cost, cirrus::valid::RunReport& report) {
  core::Table t({"strategy", "bid ($/h)", "ckpt (min)", "finish (h)", "interruptions",
                 "attempts", "lost (h)", "boot (min)", "od runs", "cost ($)", "vs on-demand"});
  for (std::size_t i = 0; i < std::size(kStrategies); ++i) {
    const auto& s = kStrategies[i];
    const Avg& a = rows[i];
    t.row().add(s.name).add(s.bid, 2).add(s.ckpt_s / 60, 0).add(a.finish / 3600, 2)
        .add(a.intr, 1).add(a.attempts, 1).add(a.lost / 3600, 2).add(a.boot / 60, 1)
        .add(a.od, 1).add(a.cost, 2).add(a.cost / od_cost, 2);
    report.add(std::string(prefix) + "_finish_h", s.key, 0, a.finish / 3600, "h")
        .add(std::string(prefix) + "_interruptions", s.key, 0, a.intr)
        .add(std::string(prefix) + "_lost_h", s.key, 0, a.lost / 3600, "h")
        .add(std::string(prefix) + "_cost_usd", s.key, 0, a.cost, "$")
        .add(std::string(prefix) + "_cost_vs_od", s.key, 0, a.cost / od_cost);
  }
  std::printf("%s\n%s", title, t.str().c_str());
}

}  // namespace

CIRRUS_BENCH_TARGET(ext4, "ext",
                    "Spot-bidding strategies: analytic vs emergent accounting on EC2") {
  const int jobs = opts.get_int("jobs", 0);

  // Fault-free reference run: its virtual walltime is the job length the
  // analytic model is told about, so the two tables describe the same job.
  const auto reference = mpi::run_job(burst_config(), burst_body);
  const double runtime = reference.elapsed_seconds;
  // Only this run's events are counted: fault::run_on_spot's attempts expose
  // no JobResult.
  report.events += reference.events_processed;
  const double od_cost = kOnDemand * kInstances * runtime / 3600.0;

  std::printf("## ext4: spot-bidding strategies for a %.1f h x %d-instance burst\n",
              runtime / 3600, kInstances);
  core::Table base({"strategy", "bid ($/h)", "ckpt (min)", "finish (h)", "cost ($)"});
  base.row().add("on-demand").add(kOnDemand, 2).add(0).add(runtime / 3600, 2).add(od_cost, 2);
  std::printf("%s", base.str().c_str());
  report.add("od_runtime_h", "on_demand", 0, runtime / 3600, "h")
      .add("od_cost_usd", "on_demand", 0, od_cost, "$");

  // Analytic: closed-form spot accounting, averaged over market seeds.
  std::vector<Avg> analytic(std::size(kStrategies));
  for (std::size_t i = 0; i < std::size(kStrategies); ++i) {
    const auto& s = kStrategies[i];
    for (int seed = 0; seed < kSeeds; ++seed) {
      cloud::SpotMarket market({}, 100 + static_cast<std::uint64_t>(seed));
      analytic[i] += cloud::run_on_spot(market, 0.0, runtime, s.bid, s.ckpt_s, kInstances,
                                        kOnDemand);
    }
    analytic[i].scale(1.0 / kSeeds);
  }
  print_table("\n### analytic (closed-form lost-tail model)", "analytic", analytic, od_cost,
              report);

  // Emergent: the same strategies, but every attempt is a real simulated run.
  const std::vector<cloud::SpotRun> runs = core::run_sweep<cloud::SpotRun>(
      std::size(kStrategies) * kSeeds,
      [&](std::size_t i) {
        const auto& s = kStrategies[i / kSeeds];
        const auto seed = static_cast<std::uint64_t>(i % kSeeds);
        cloud::SpotMarket market({}, 100 + seed);
        fault::SpotJobOptions sopts;
        sopts.bid = s.bid;
        sopts.checkpoint_interval_s = s.ckpt_s;
        sopts.instances = kInstances;
        sopts.on_demand_hourly_usd = kOnDemand;
        sopts.provision_seed = 7 + seed;
        return fault::run_on_spot(market, burst_config(), burst_body, sopts);
      },
      jobs);
  std::vector<Avg> emergent(std::size(kStrategies));
  for (std::size_t i = 0; i < runs.size(); ++i) emergent[i / kSeeds] += runs[i];
  for (auto& a : emergent) a.scale(1.0 / kSeeds);
  print_table("\n### emergent (simulated runs: real checkpoints, reclaims, boots)", "emergent",
              emergent, od_cost, report);

  std::printf("\nlesson: bidding near the mean price saves ~%0.f%%; low bids without "
              "checkpointing thrash (the closed form trips its guard and falls back to "
              "on-demand), and the emergent rows add what the closed form hides — checkpoint "
              "I/O time, re-provision boots and warning-window saves.\n",
              100.0 * (1 - 0.6 / 1.6));
  return 0;
}
