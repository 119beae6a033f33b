// Tests for the fault-injection / checkpoint-restart subsystem: schedule
// determinism, kill semantics, degradation injectors, and exact recovery of
// execute-mode results across a crash.
#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/driver.hpp"
#include "npb/npb.hpp"
#include "platform/platform.hpp"

namespace fault = cirrus::fault;
namespace mpi = cirrus::mpi;
namespace npb = cirrus::npb;
namespace plat = cirrus::plat;
namespace cloud = cirrus::cloud;
namespace core = cirrus::core;
namespace obs = cirrus::obs;

namespace {

fault::FaultModel busy_model() {
  fault::FaultModel m;
  m.crash_mtbf_s = 4000;
  m.straggler_mtbf_s = 2500;
  m.link_mtbf_s = 3000;
  return m;
}

mpi::JobConfig cg_config(bool execute) {
  return npb::make_job(npb::benchmark("CG"), npb::Class::S, plat::vayu(), 4, execute, 1);
}

void cg_body(mpi::RankEnv& env) {
  const auto res = npb::run_cg(env, npb::Class::S);
  if (env.rank() == 0) {
    env.report("verified", res.verified ? 1.0 : 0.0);
    env.report("zeta", res.verification_value);
  }
}

void ep_body(mpi::RankEnv& env) {
  const auto res = npb::run_ep(env, npb::Class::S);
  if (env.rank() == 0) {
    env.report("verified", res.verified ? 1.0 : 0.0);
    env.report("sums", res.verification_value);
  }
}

}  // namespace

// ------------------------------------------------------- schedule generation
TEST(FaultSchedule, GenerateIsDeterministic) {
  const auto a = fault::FaultSchedule::generate(busy_model(), 8, 86400, 42);
  const auto b = fault::FaultSchedule::generate(busy_model(), 8, 86400, 42);
  ASSERT_EQ(a.events().size(), b.events().size());
  ASSERT_GT(a.events().size(), 0u);
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_DOUBLE_EQ(a.events()[i].at_s, b.events()[i].at_s);
    EXPECT_EQ(a.events()[i].node, b.events()[i].node);
  }
}

TEST(FaultSchedule, PerNodeSubstreamsAreNodeCountStable) {
  // Adding nodes must not perturb the fault times of existing nodes: each
  // (node, class) pair draws from its own forked substream.
  const auto small = fault::FaultSchedule::generate(busy_model(), 2, 86400, 7);
  const auto big = fault::FaultSchedule::generate(busy_model(), 6, 86400, 7);
  std::vector<fault::FaultEvent> small_events = small.events();
  std::vector<fault::FaultEvent> big_prefix;
  for (const auto& ev : big.events()) {
    if (ev.node < 2) big_prefix.push_back(ev);
  }
  ASSERT_EQ(small_events.size(), big_prefix.size());
  for (std::size_t i = 0; i < small_events.size(); ++i) {
    EXPECT_EQ(small_events[i].kind, big_prefix[i].kind);
    EXPECT_DOUBLE_EQ(small_events[i].at_s, big_prefix[i].at_s);
    EXPECT_EQ(small_events[i].node, big_prefix[i].node);
  }
}

TEST(FaultSchedule, SeedChangesSchedule) {
  const auto a = fault::FaultSchedule::generate(busy_model(), 4, 86400, 1);
  const auto b = fault::FaultSchedule::generate(busy_model(), 4, 86400, 2);
  ASSERT_FALSE(a.events().empty());
  ASSERT_FALSE(b.events().empty());
  EXPECT_NE(a.events()[0].at_s, b.events()[0].at_s);
}

TEST(FaultSchedule, EventsSortedAndWithinHorizon) {
  const auto s = fault::FaultSchedule::generate(busy_model(), 4, 43200, 3);
  double prev = 0;
  for (const auto& ev : s.events()) {
    EXPECT_GE(ev.at_s, prev);
    EXPECT_LT(ev.at_s, 43200);
    prev = ev.at_s;
  }
}

TEST(FaultSchedule, QueriesMatchHandCraftedEvents) {
  fault::FaultSchedule s;
  s.add({fault::FaultKind::Straggler, 100, 0, /*duration_s=*/50, /*magnitude=*/4.0});
  s.add({fault::FaultKind::LinkDegrade, 200, 1, 60, /*magnitude=*/0.25, 800});
  s.add({fault::FaultKind::NodeCrash, 500, 0});
  EXPECT_DOUBLE_EQ(s.compute_slowdown(0, 120), 4.0);
  EXPECT_DOUBLE_EQ(s.compute_slowdown(0, 99), 1.0);   // before the window
  EXPECT_DOUBLE_EQ(s.compute_slowdown(0, 151), 1.0);  // after the window
  EXPECT_DOUBLE_EQ(s.compute_slowdown(1, 120), 1.0);  // other node untouched
  EXPECT_DOUBLE_EQ(s.link_bw_factor(1, 230), 0.25);
  EXPECT_DOUBLE_EQ(s.link_bw_factor(0, 230), 1.0);
  EXPECT_DOUBLE_EQ(s.link_extra_latency_us(1, 230), 800);
  const auto* fatal = s.next_fatal_after(0);
  ASSERT_NE(fatal, nullptr);
  EXPECT_DOUBLE_EQ(fatal->at_s, 500);
  EXPECT_EQ(s.next_fatal_after(500), nullptr);
}

// ------------------------------------------------------------ kill semantics
TEST(FaultInjection, KillEventAbortsRunJob) {
  auto cfg = cg_config(false);
  const double t0 = mpi::run_job(cfg, cg_body).elapsed_seconds;
  cfg.faults.kill_at_s = 0.5 * t0;
  try {
    mpi::run_job(cfg, cg_body);
    FAIL() << "expected JobKilledError";
  } catch (const mpi::JobKilledError& e) {
    EXPECT_NEAR(e.at_seconds, 0.5 * t0, 1e-5);  // tick quantisation
  }
}

TEST(FaultInjection, KillAfterCompletionIsIgnored) {
  auto cfg = cg_config(false);
  const double t0 = mpi::run_job(cfg, cg_body).elapsed_seconds;
  cfg.faults.kill_at_s = 2.0 * t0;  // fires after the last rank finished
  EXPECT_NO_THROW(mpi::run_job(cfg, cg_body));
}

// ------------------------------------------------------ degradation injectors
TEST(FaultInjection, StragglerStretchesTheRun) {
  auto cfg = npb::make_job(npb::benchmark("CG"), npb::Class::S, plat::vayu(), 8, false, 1);
  cfg.max_ranks_per_node = 4;  // 2 nodes
  const double t0 = mpi::run_job(cfg, cg_body).elapsed_seconds;
  fault::FaultSchedule s;
  s.add({fault::FaultKind::Straggler, 0, 0, /*duration_s=*/1e9, /*magnitude=*/4.0});
  const auto run = fault::run_resilient(cfg, cg_body, s);
  EXPECT_EQ(run.attempts, 1);
  // One of two nodes computing 4x slower gates the BSP steps.
  EXPECT_GT(run.makespan_s, 1.5 * t0);
}

TEST(FaultInjection, LinkDegradationStretchesTheRun) {
  auto cfg = npb::make_job(npb::benchmark("FT"), npb::Class::S, plat::dcc(), 8, false, 1);
  cfg.max_ranks_per_node = 4;  // alltoall across the degraded NIC
  const double t0 = mpi::run_job(cfg, [](mpi::RankEnv& env) { npb::run_ft(env, npb::Class::S); })
                        .elapsed_seconds;
  fault::FaultSchedule s;
  s.add({fault::FaultKind::LinkDegrade, 0, 0, 1e9, /*magnitude=*/0.1,
         /*extra_latency_us=*/2000});
  const auto run = fault::run_resilient(
      cfg, [](mpi::RankEnv& env) { npb::run_ft(env, npb::Class::S); }, s);
  EXPECT_EQ(run.attempts, 1);
  EXPECT_GT(run.makespan_s, 1.2 * t0);
}

// --------------------------------------------------------- checkpoint/restart
TEST(Resilience, CgCrashRestartReproducesExactResidual) {
  // The ISSUE's acceptance scenario: a CG run crashed mid-flight and
  // restarted from its checkpoint must verify with the *same* residual as an
  // uninterrupted run — restore is bitwise (memcpy of the solver state).
  auto cfg = cg_config(true);
  const auto clean = mpi::run_job(cfg, cg_body);
  ASSERT_EQ(clean.values.at("verified"), 1.0);
  const double t0 = clean.elapsed_seconds;

  cfg.checkpoint_interval_s = t0 / 8;
  fault::FaultSchedule s;
  s.add({fault::FaultKind::NodeCrash, 0.55 * t0, 0});
  const auto run = fault::run_resilient(cfg, cg_body, s);
  EXPECT_EQ(run.attempts, 2);
  EXPECT_EQ(run.faults_hit, 1);
  EXPECT_GT(run.checkpoints_taken, 0);
  EXPECT_GT(run.lost_work_s, 0);
  EXPECT_EQ(run.result.values.at("verified"), 1.0);
  EXPECT_EQ(run.result.values.at("zeta"), clean.values.at("zeta"));  // exact
  EXPECT_GT(run.makespan_s, t0);  // crash + restart cannot be free
}

TEST(Resilience, EpCrashRestartReproducesExactSums) {
  auto cfg = npb::make_job(npb::benchmark("EP"), npb::Class::S, plat::vayu(), 4, true, 1);
  const auto clean = mpi::run_job(cfg, ep_body);
  ASSERT_EQ(clean.values.at("verified"), 1.0);
  const double t0 = clean.elapsed_seconds;

  cfg.checkpoint_interval_s = t0 / 8;
  fault::FaultSchedule s;
  s.add({fault::FaultKind::NodeCrash, 0.6 * t0, 0});
  const auto run = fault::run_resilient(cfg, ep_body, s);
  EXPECT_EQ(run.attempts, 2);
  EXPECT_EQ(run.result.values.at("verified"), 1.0);
  EXPECT_EQ(run.result.values.at("sums"), clean.values.at("sums"));
}

TEST(Resilience, NoCheckpointsMeansFullRerun) {
  auto cfg = cg_config(false);
  const double t0 = mpi::run_job(cfg, cg_body).elapsed_seconds;
  fault::FaultSchedule s;
  s.add({fault::FaultKind::NodeCrash, 0.5 * t0, 0});
  fault::ResilientOptions opts;
  opts.requeue_delay_s = 10;
  const auto run = fault::run_resilient(cfg, cg_body, s, opts);
  EXPECT_EQ(run.attempts, 2);
  EXPECT_EQ(run.checkpoints_taken, 0);
  EXPECT_NEAR(run.lost_work_s, 0.5 * t0, 1e-4);           // everything re-run
  EXPECT_NEAR(run.makespan_s, 1.5 * t0 + 10, 0.05 * t0);  // partial + requeue + full
}

TEST(Resilience, CheckpointsBoundLostWork) {
  auto cfg = cg_config(false);
  const double t0 = mpi::run_job(cfg, cg_body).elapsed_seconds;
  fault::FaultSchedule s;
  s.add({fault::FaultKind::NodeCrash, 0.5 * t0, 0});
  cfg.checkpoint_interval_s = t0 / 16;
  const auto run = fault::run_resilient(cfg, cg_body, s);
  EXPECT_GT(run.checkpoints_taken, 2);
  // Lost work is at most one interval plus the checkpoint's own I/O time.
  EXPECT_LT(run.lost_work_s, 0.25 * t0);
  EXPECT_GT(run.checkpoint_bytes, 0u);
}

TEST(Resilience, SpotReclaimWarningTriggersCheckpoint) {
  auto cfg = cg_config(false);
  const double t0 = mpi::run_job(cfg, cg_body).elapsed_seconds;
  // No interval checkpointing at all: the only checkpoint is the one forced
  // by the reclaim warning, so nearly nothing is lost.
  cfg.checkpoint_interval_s = 0;
  fault::FaultSchedule s;
  s.add({fault::FaultKind::SpotReclaim, 0.7 * t0, -1, 0, 1.0, 0,
         /*warning_s=*/0.2 * t0});
  const auto run = fault::run_resilient(cfg, cg_body, s);
  EXPECT_EQ(run.attempts, 2);
  EXPECT_EQ(run.checkpoints_taken, 1);
  EXPECT_LT(run.lost_work_s, 0.25 * t0);
}

TEST(Resilience, ProvisionerRestartChargesBootTime) {
  auto cfg = cg_config(false);
  const double t0 = mpi::run_job(cfg, cg_body).elapsed_seconds;
  fault::FaultSchedule s;
  s.add({fault::FaultKind::NodeCrash, 0.5 * t0, 0});
  fault::ResilientOptions opts;
  opts.instance_type = "cc1.4xlarge";
  opts.instances = 2;
  opts.hourly_usd = 3.20;
  const auto run = fault::run_resilient(cfg, cg_body, s, opts);
  EXPECT_EQ(run.attempts, 2);
  EXPECT_GT(run.restart_delay_s, 10.0);  // instances take time to boot
  EXPECT_GT(run.cost_usd, 0.0);
}

TEST(Resilience, ResilientRunIsDeterministicUnderParallelSweep) {
  // ext5's contract: a sweep of resilient runs is bit-identical no matter
  // how many driver threads execute it.
  const auto sweep = [](int jobs) {
    return core::run_sweep<double>(
        4,
        [](std::size_t i) {
          auto cfg = cg_config(false);
          cfg.checkpoint_interval_s = 2.0;
          fault::FaultModel m;
          m.crash_mtbf_s = 30.0 + static_cast<double>(10 * i);
          const auto s = fault::FaultSchedule::generate(m, 2, 4000, 11 + i);
          const auto run = fault::run_resilient(cfg, cg_body, s);
          return run.makespan_s + 1e-6 * run.attempts;
        },
        jobs);
  };
  const auto serial = sweep(1);
  const auto parallel = sweep(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i], parallel[i]);  // bitwise: same events, same math
  }
}

TEST(Resilience, MergedTraceCoversAllAttempts) {
  auto cfg = cg_config(false);
  const double t0 = mpi::run_job(cfg, cg_body).elapsed_seconds;
  cfg.enable_trace = true;
  cfg.checkpoint_interval_s = t0 / 8;
  fault::FaultSchedule s;
  s.add({fault::FaultKind::NodeCrash, 0.5 * t0, 0});
  const auto run = fault::run_resilient(cfg, cg_body, s);
  ASSERT_EQ(run.attempts, 2);
  ASSERT_NE(run.result.trace, nullptr);
  const obs::SpanSet& trace = *run.result.trace;
  // The killed attempt's partial timeline is merged in, offset to the global
  // clock: some interval must end after the makespan of the first attempt.
  double last_end = 0;
  for (const auto& sp : trace.spans()) {
    if (sp.kind == obs::SpanKind::Interval) {
      last_end = std::max(last_end, cirrus::sim::to_seconds(sp.end));
    }
  }
  EXPECT_GT(last_end, 0.9 * run.makespan_s - 1.0);
  EXPECT_GT(trace.size(), 0u);

  // Every span, flow and instant lies on the run's global clock.
  const double makespan_s = run.makespan_s + 1e-9;  // seconds <-> ns rounding
  for (const auto& sp : trace.spans()) {
    EXPECT_GE(sp.begin, 0);
    EXPECT_LE(sp.begin, sp.end);
    EXPECT_LE(cirrus::sim::to_seconds(sp.end), makespan_s);
  }
  ASSERT_FALSE(trace.flows().empty());
  for (const auto& f : trace.flows()) {
    EXPECT_GE(f.send, 0);
    EXPECT_LE(f.send, f.recv);
    EXPECT_LE(cirrus::sim::to_seconds(f.recv), makespan_s);
  }

  // The killed attempt's checkpoint writes keep their storage.service spans
  // before the crash; the final attempt's land after the restart delay.
  const auto service = trace.find_category("storage.service");
  ASSERT_TRUE(service.has_value());
  const double crash_s = 0.5 * t0 + 1e-5;  // tick quantisation
  int before = 0, after = 0;
  for (const auto& sp : trace.spans()) {
    if (sp.kind != obs::SpanKind::Causal || sp.category != *service) continue;
    if (cirrus::sim::to_seconds(sp.end) <= crash_s) ++before;
    if (cirrus::sim::to_seconds(sp.begin) >= crash_s + run.restart_delay_s) ++after;
  }
  EXPECT_GT(before, 0);
  EXPECT_GT(after, 0);
}

// ------------------------------------------------------------- emergent spot
TEST(SpotSim, HighBidMatchesPlainRun) {
  cloud::SpotMarket m({}, 23);
  auto cfg = cg_config(false);
  fault::SpotJobOptions opts;
  opts.bid = 1.60;  // never interrupted at on-demand price
  opts.checkpoint_interval_s = 0;
  const auto run = fault::run_on_spot(m, cfg, cg_body, opts);
  EXPECT_EQ(run.interruptions, 0);
  EXPECT_EQ(run.attempts, 1);
  EXPECT_FALSE(run.finished_on_demand);
  EXPECT_GT(run.boot_overhead_s, 0.0);  // the first boot is still charged
  EXPECT_GT(run.cost_usd, 0.0);
}

TEST(SpotSim, SameSeedSameRun) {
  const auto go = [] {
    cloud::SpotMarket m({}, 101);
    auto cfg = cg_config(false);
    fault::SpotJobOptions opts;
    opts.bid = 0.45;
    opts.checkpoint_interval_s = 1.0;
    return fault::run_on_spot(m, cfg, cg_body, opts);
  };
  const auto a = go();
  const auto b = go();
  EXPECT_DOUBLE_EQ(a.finish_s, b.finish_s);
  EXPECT_DOUBLE_EQ(a.cost_usd, b.cost_usd);
  EXPECT_EQ(a.interruptions, b.interruptions);
  EXPECT_EQ(a.attempts, b.attempts);
}
