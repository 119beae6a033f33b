// Extension: fault-resilience sweep across the three study platforms.
//
// Runs NPB CG (class B pattern, np=16 over 2 nodes) under injected node
// crashes with checkpoint/restart, sweeping failure rate x checkpoint
// interval x platform, and reports time-to-solution and cost. The grid is
// scale-free: each platform's fault-free run time T0 is measured first and
// MTBF / checkpoint intervals are expressed in units of it, so the same
// sweep stresses Vayu, the DCC cloud and EC2 equally.
//
// Everything is seeded (fault times, boot latencies, network jitter): two
// runs with the same seed are byte-identical, for any `--jobs` value.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/registry.hpp"
#include "core/driver.hpp"
#include "core/options.hpp"
#include "core/table.hpp"
#include "fault/fault.hpp"
#include "npb/npb.hpp"

namespace {

/// Compact grid-point tag for metric names: 0.25 -> "0.25", 0.0625 -> "0.0625".
std::string frac_tag(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

CIRRUS_BENCH_TARGET(ext5, "ext",
                    "Fault-resilience sweep: MTBF x checkpoint interval x platform") {
  using namespace cirrus;
  const int jobs = opts.get_int("jobs", 0);
  const std::uint64_t seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));

  const int np = 16;
  const int rpn = 8;  // 2 nodes on every platform
  const int nodes = 2;
  const auto cls = npb::Class::B;  // T0 in the minutes: restart delays don't dominate
  const auto& cg = npb::benchmark("CG");
  const auto body = [cls](mpi::RankEnv& env) { npb::run_cg(env, cls); };

  struct PlatformSpec {
    plat::Platform platform;
    double hourly_usd;         // holding cost of the 2-node allocation
    bool reprovision;          // restarts re-provision + boot; else requeue
  };
  const PlatformSpec specs[] = {
      {plat::vayu(), 2 * 0.24, false},  // facility-amortised node rate
      {plat::dcc(), 2 * 0.18, false},
      {plat::ec2(), 2 * 1.60, true},
  };

  // Fault-free baselines give each platform its T0.
  const std::vector<mpi::JobResult> baselines = core::run_sweep<mpi::JobResult>(
      std::size(specs),
      [&](std::size_t i) {
        auto cfg = npb::make_job(cg, cls, specs[i].platform, np, /*execute=*/false, 1);
        cfg.max_ranks_per_node = rpn;
        return mpi::run_job(cfg, body);
      },
      jobs);
  std::vector<double> t0;
  for (const auto& b : baselines) {
    t0.push_back(b.elapsed_seconds);
    report.events += b.events_processed;
  }

  // The grid: per-node crash MTBF and checkpoint interval in units of T0.
  const double mtbf_grid[] = {0.0, 1.0, 0.25};    // 0: no faults
  const double ckpt_grid[] = {0.0, 1.0 / 16, 1.0 / 4};  // 0: no checkpoints

  struct Point {
    std::size_t spec;
    double mtbf_frac, ckpt_frac;
  };
  std::vector<Point> points;
  for (std::size_t s = 0; s < std::size(specs); ++s) {
    for (const double m : mtbf_grid) {
      for (const double c : ckpt_grid) points.push_back({s, m, c});
    }
  }

  struct R {
    double tts_s = 0, lost_s = 0, cost_usd = 0;
    int attempts = 0, ckpts = 0;
    std::uint64_t events = 0;
  };
  const std::vector<R> results = core::run_sweep<R>(
      points.size(),
      [&](std::size_t i) {
        const Point& p = points[i];
        const PlatformSpec& spec = specs[p.spec];
        auto cfg = npb::make_job(cg, cls, spec.platform, np, /*execute=*/false, 1);
        cfg.max_ranks_per_node = rpn;
        cfg.checkpoint_interval_s = p.ckpt_frac * t0[p.spec];

        fault::FaultModel model;
        model.crash_mtbf_s = p.mtbf_frac > 0 ? p.mtbf_frac * t0[p.spec] : 0;
        const auto schedule =
            fault::FaultSchedule::generate(model, nodes, 40.0 * t0[p.spec], seed);

        fault::ResilientOptions ropts;
        ropts.hourly_usd = spec.hourly_usd;
        ropts.requeue_delay_s = 120.0;
        ropts.reprovision = spec.reprovision;
        ropts.instances = nodes;
        const auto run = fault::run_resilient(cfg, body, schedule, ropts);
        // Only the completing attempt's events are counted: killed attempts
        // expose no JobResult.
        return R{run.makespan_s, run.lost_work_s, run.cost_usd, run.attempts,
                 run.checkpoints_taken, run.result.events_processed};
      },
      jobs);
  for (const R& r : results) report.events += r.events;

  core::Table t({"platform", "MTBF/T0", "ckpt/T0", "T (s)", "T/T0", "attempts", "lost (s)",
                 "ckpts", "cost ($)"});
  for (std::size_t s = 0; s < std::size(specs); ++s) {
    report.add("t0_s", specs[s].platform.name, np, t0[s], "s");
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    const R& r = results[i];
    t.row()
        .add(specs[p.spec].platform.name)
        .add(p.mtbf_frac, 2)
        .add(p.ckpt_frac, 3)
        .add(r.tts_s, 1)
        .add(r.tts_s / t0[p.spec], 2)
        .add(r.attempts)
        .add(r.lost_s, 1)
        .add(r.ckpts)
        .add(r.cost_usd, 3);
    const std::string tag = "_m" + frac_tag(p.mtbf_frac) + "_c" + frac_tag(p.ckpt_frac);
    report.add("tts_ratio" + tag, specs[p.spec].platform.name, np, r.tts_s / t0[p.spec])
        .add("attempts" + tag, specs[p.spec].platform.name, np, r.attempts)
        .add("cost_usd" + tag, specs[p.spec].platform.name, np, r.cost_usd, "$");
  }
  std::printf("## ext5: fault resilience, NPB CG class B pattern, np=%d on %d nodes\n", np,
              nodes);
  std::printf("baselines T0: vayu %.1f s, dcc %.1f s, ec2 %.1f s (seed %llu)\n%s", t0[0], t0[1],
              t0[2], static_cast<unsigned long long>(seed), t.str().c_str());
  std::printf(
      "\nlesson: without checkpoints a per-node MTBF of T0/4 makes completion a lottery "
      "(attempts explode); a T0/16 checkpoint interval bounds lost work at every failure "
      "rate, and EC2 pays extra for each restart's re-provisioning boot.\n");
  return 0;
}
