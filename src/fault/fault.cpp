#include "fault/fault.hpp"

#include <algorithm>
#include <cmath>

#include "obs/telemetry.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace cirrus::fault {

// ---------------------------------------------------------------------------
// FaultSchedule.
// ---------------------------------------------------------------------------

namespace {

// Node n's crashes always come from fork(kCrashDomain + n), so adding nodes
// never perturbs the crashes of existing ones.
constexpr std::uint64_t kCrashDomain = 0xFA171000ULL;

// run_resilient's attempt with this number runs crash-free, whatever the
// schedule holds (a termination guard for schedules denser than any
// checkpoint interval).
constexpr int kMaxResilientAttempts = 64;

void draw_poisson(const sim::Rng& root, int node, double mtbf_s, double horizon_s,
                  const std::function<void(double)>& emit) {
  sim::Rng rng = root.fork(kCrashDomain + static_cast<std::uint64_t>(node));
  for (double t = rng.exponential(mtbf_s); t < horizon_s; t += rng.exponential(mtbf_s)) {
    emit(t);
  }
}

}  // namespace

FaultSchedule FaultSchedule::generate(const FaultModel& model, int nodes, double horizon_s,
                                      std::uint64_t seed) {
  FaultSchedule s;
  if (model.crash_mtbf_s <= 0) return s;
  const sim::Rng root(seed);
  for (int node = 0; node < nodes; ++node) {
    draw_poisson(root, node, model.crash_mtbf_s, horizon_s, [&](double t) {
      s.events_.push_back(FaultEvent{.at_s = t, .node = node});
    });
  }
  s.sort_events();
  return s;
}

void FaultSchedule::sort_events() {
  std::sort(events_.begin(), events_.end(), [](const FaultEvent& a, const FaultEvent& b) {
    if (a.at_s != b.at_s) return a.at_s < b.at_s;
    return a.node < b.node;
  });
}

void FaultSchedule::add(const FaultEvent& ev) {
  events_.push_back(ev);
  sort_events();
}

const FaultEvent* FaultSchedule::next_fatal_after(double t_s) const noexcept {
  const auto it = std::upper_bound(events_.begin(), events_.end(), t_s,
                                   [](double t, const FaultEvent& ev) { return t < ev.at_s; });
  return it != events_.end() ? &*it : nullptr;
}

// ---------------------------------------------------------------------------
// Resilient execution.
// ---------------------------------------------------------------------------

ResilientRun run_resilient(const mpi::JobConfig& config,
                           const std::function<void(mpi::RankEnv&)>& body,
                           const FaultSchedule& schedule, const ResilientOptions& opts) {
  ResilientRun out;
  mpi::CheckpointStore local_store;
  mpi::CheckpointStore* store =
      config.checkpoint_store != nullptr ? config.checkpoint_store : &local_store;
  // One trace for the whole run: each attempt's set, shifted once onto the
  // global clock (killed attempts contribute their partial timelines).
  auto merged = config.enable_trace ? std::make_shared<obs::SpanSet>() : nullptr;
  cloud::Provisioner provisioner;

  double global_t = 0;  // virtual time consumed so far (runs + restart delays)
  for (int attempt = 1;; ++attempt) {
    mpi::JobConfig cfg = config;
    cfg.checkpoint_store = store;
    store->begin_attempt();
    // The schedule's absolute clock, shifted onto this attempt's clock.
    const FaultEvent* crash = schedule.next_fatal_after(global_t);
    if (crash != nullptr && attempt < kMaxResilientAttempts) {
      cfg.faults.kill_at_s = crash->at_s - global_t;
    }
    try {
      mpi::JobResult r = mpi::run_job(cfg, body);
      out.cost_usd += opts.hourly_usd * r.elapsed_seconds / 3600.0;
      out.makespan_s = global_t + r.elapsed_seconds;
      out.attempts = attempt;
      if (merged && r.trace) merged->merge(*r.trace, sim::from_seconds(global_t));
      out.result = std::move(r);
      break;
    } catch (const mpi::JobKilledError& killed) {
      ++out.faults_hit;
      const double ran = killed.at_seconds;
      const double kept = std::max(0.0, store->last_commit_s());
      out.lost_work_s += ran - kept;
      out.cost_usd += opts.hourly_usd * ran / 3600.0;
      if (merged && killed.trace) merged->merge(*killed.trace, sim::from_seconds(global_t));
      double delay = opts.requeue_delay_s;
      if (opts.reprovision) delay = provisioner.provision(opts.instances).ready_after_s;
      out.restart_delay_s += delay;
      global_t += ran + delay;
    }
  }
  out.checkpoints_taken = store->checkpoints_taken();
  out.checkpoint_bytes = store->bytes_written();
  obs::GlobalCounters::instance().add({
      {"fault_kills", static_cast<std::uint64_t>(out.faults_hit)},
      {"fault_restarts", static_cast<std::uint64_t>(out.attempts > 0 ? out.attempts - 1 : 0)},
      {"fault_checkpoints_taken", static_cast<std::uint64_t>(out.checkpoints_taken)},
      {"fault_checkpoint_bytes", static_cast<std::uint64_t>(out.checkpoint_bytes)},
  });
  if (merged) out.result.trace = std::move(merged);
  return out;
}

// ---------------------------------------------------------------------------
// Simulated spot execution.
// ---------------------------------------------------------------------------

cloud::SpotRun run_on_spot(cloud::SpotMarket& market, const mpi::JobConfig& config,
                           const std::function<void(mpi::RankEnv&)>& body,
                           const SpotJobOptions& opts) {
  constexpr double kHorizonEndS = 90.0 * 86400.0;  // from t = 0: a quarter, then on-demand
  constexpr double kWarningS = 120.0;              // reclaim notice before the kill
  constexpr int kMaxAttempts = 200;                // then on-demand too
  cloud::SpotRun out;
  mpi::CheckpointStore store;
  cloud::Provisioner provisioner(opts.provision_seed);

  double now = 0;
  for (int attempt = 1;; ++attempt) {
    mpi::JobConfig cfg = config;
    cfg.checkpoint_store = &store;
    if (cfg.checkpoint_interval_s <= 0) cfg.checkpoint_interval_s = opts.checkpoint_interval_s;
    store.begin_attempt();

    const double start = attempt <= kMaxAttempts
                             ? market.next_available(now, opts.bid, kHorizonEndS - now)
                             : -1.0;
    if (start < 0) {
      // Spot never comes back (or the attempt budget is spent): finish the
      // remainder on-demand, fault-free, at the capped hourly price.
      mpi::JobResult r = mpi::run_job(cfg, body);
      out.cost_usd += opts.on_demand_hourly_usd * opts.instances * r.elapsed_seconds / 3600.0;
      out.on_demand_s = r.elapsed_seconds;
      out.finished_on_demand = true;
      out.attempts = attempt;
      now += r.elapsed_seconds;
      break;
    }

    // Boot the instances; billing starts when capacity is granted.
    const double boot = provisioner.provision(opts.instances).ready_after_s;
    out.boot_overhead_s += boot;
    const double run_from = start + boot;

    const double reclaim = market.next_interruption(run_from, opts.bid, kHorizonEndS - run_from);
    if (reclaim >= 0) {
      cfg.faults.kill_at_s = reclaim - run_from;
      cfg.faults.warn_at_s = std::max(0.0, cfg.faults.kill_at_s - kWarningS);
    }
    try {
      mpi::JobResult r = mpi::run_job(cfg, body);
      out.cost_usd += market.cost(start, run_from + r.elapsed_seconds, opts.instances);
      out.attempts = attempt;
      now = run_from + r.elapsed_seconds;
      break;
    } catch (const mpi::JobKilledError& killed) {
      ++out.interruptions;
      const double kept = std::max(0.0, store.last_commit_s());
      out.lost_work_s += killed.at_seconds - kept;
      out.cost_usd += market.cost(start, run_from + killed.at_seconds, opts.instances);
      now = run_from + killed.at_seconds;
    }
  }
  out.finish_s = now;
  obs::GlobalCounters::instance().add({
      {"fault_spot_interruptions", static_cast<std::uint64_t>(out.interruptions)},
      {"fault_spot_on_demand_finishes", out.finished_on_demand ? std::uint64_t{1}
                                                              : std::uint64_t{0}},
  });
  return out;
}

}  // namespace cirrus::fault
