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

// Substream domains per fault class: node n's crashes always come from
// fork(kCrashDomain + n), so adding nodes or classes never perturbs the
// events of existing ones.
constexpr std::uint64_t kCrashDomain = 0xFA171000ULL;
constexpr std::uint64_t kStragglerDomain = 0xFA172000ULL;
constexpr std::uint64_t kLinkDomain = 0xFA173000ULL;

void draw_poisson(const sim::Rng& root, std::uint64_t domain, int node, double mtbf_s,
                  double horizon_s, const std::function<void(double)>& emit) {
  sim::Rng rng = root.fork(domain + static_cast<std::uint64_t>(node));
  for (double t = rng.exponential(mtbf_s); t < horizon_s; t += rng.exponential(mtbf_s)) {
    emit(t);
  }
}

}  // namespace

FaultSchedule FaultSchedule::generate(const FaultModel& model, int nodes, double horizon_s,
                                      std::uint64_t seed) {
  FaultSchedule s;
  s.model_ = model;
  const sim::Rng root(seed);
  for (int node = 0; node < nodes; ++node) {
    if (model.crash_mtbf_s > 0) {
      draw_poisson(root, kCrashDomain, node, model.crash_mtbf_s, horizon_s, [&](double t) {
        s.events_.push_back(FaultEvent{.kind = FaultKind::NodeCrash, .at_s = t, .node = node});
      });
    }
    if (model.straggler_mtbf_s > 0) {
      draw_poisson(root, kStragglerDomain, node, model.straggler_mtbf_s, horizon_s,
                   [&](double t) {
                     s.events_.push_back(FaultEvent{.kind = FaultKind::Straggler,
                                                    .at_s = t,
                                                    .node = node,
                                                    .duration_s = model.straggler_duration_s,
                                                    .magnitude = model.straggler_slowdown});
                     ++s.stragglers_;
                   });
    }
    if (model.link_mtbf_s > 0) {
      draw_poisson(root, kLinkDomain, node, model.link_mtbf_s, horizon_s, [&](double t) {
        s.events_.push_back(FaultEvent{.kind = FaultKind::LinkDegrade,
                                       .at_s = t,
                                       .node = node,
                                       .duration_s = model.link_duration_s,
                                       .magnitude = model.link_bw_fraction,
                                       .extra_latency_us = model.link_extra_latency_us});
        ++s.link_faults_;
      });
    }
  }
  s.sort_events();
  return s;
}

void FaultSchedule::sort_events() {
  std::sort(events_.begin(), events_.end(), [](const FaultEvent& a, const FaultEvent& b) {
    if (a.at_s != b.at_s) return a.at_s < b.at_s;
    if (a.node != b.node) return a.node < b.node;
    return static_cast<char>(a.kind) < static_cast<char>(b.kind);
  });
}

void FaultSchedule::add(const FaultEvent& ev) {
  events_.push_back(ev);
  if (ev.kind == FaultKind::Straggler) ++stragglers_;
  if (ev.kind == FaultKind::LinkDegrade) ++link_faults_;
  sort_events();
}

const FaultEvent* FaultSchedule::next_fatal_after(double t_s) const noexcept {
  for (const auto& ev : events_) {
    if (ev.at_s > t_s &&
        (ev.kind == FaultKind::NodeCrash || ev.kind == FaultKind::SpotReclaim)) {
      return &ev;
    }
  }
  return nullptr;
}

double FaultSchedule::compute_slowdown(int node, double t_s) const noexcept {
  double factor = 1.0;
  for (const auto& ev : events_) {
    if (ev.at_s > t_s) break;  // sorted: nothing later can cover t_s
    if (ev.kind == FaultKind::Straggler && ev.node == node && t_s < ev.at_s + ev.duration_s) {
      factor = std::max(factor, ev.magnitude);
    }
  }
  return factor;
}

double FaultSchedule::link_bw_factor(int node, double t_s) const noexcept {
  double factor = 1.0;
  for (const auto& ev : events_) {
    if (ev.at_s > t_s) break;
    if (ev.kind == FaultKind::LinkDegrade && ev.node == node && t_s < ev.at_s + ev.duration_s) {
      factor = std::min(factor, ev.magnitude);
    }
  }
  return factor;
}

double FaultSchedule::link_extra_latency_us(int node, double t_s) const noexcept {
  double us = 0;
  for (const auto& ev : events_) {
    if (ev.at_s > t_s) break;
    if (ev.kind == FaultKind::LinkDegrade && ev.node == node && t_s < ev.at_s + ev.duration_s) {
      us = std::max(us, ev.extra_latency_us);
    }
  }
  return us;
}

// ---------------------------------------------------------------------------
// Resilient execution.
// ---------------------------------------------------------------------------

namespace {

/// Installs the attempt-local fault configuration: the schedule's absolute
/// clock shifted by `offset_s` (the virtual time already consumed by earlier
/// attempts plus restart delays).
void install_faults(mpi::JobConfig& cfg, const FaultSchedule& schedule, double offset_s,
                    const FaultEvent* fatal, int attempt, int max_attempts) {
  if (fatal != nullptr && attempt < max_attempts) {
    cfg.faults.kill_at_s = fatal->at_s - offset_s;
    if (fatal->kind == FaultKind::SpotReclaim && fatal->warning_s > 0) {
      cfg.faults.warn_at_s = std::max(0.0, cfg.faults.kill_at_s - fatal->warning_s);
    }
  }
  if (schedule.has_stragglers()) {
    cfg.faults.compute_slowdown = [&schedule, offset_s](int node, double t_s) {
      return schedule.compute_slowdown(node, t_s + offset_s);
    };
  }
  if (schedule.has_link_faults()) {
    cfg.faults.link_bw_factor = [&schedule, offset_s](int node, double t_s) {
      return schedule.link_bw_factor(node, t_s + offset_s);
    };
    cfg.faults.link_extra_latency_us = [&schedule, offset_s](int node, double t_s) {
      return schedule.link_extra_latency_us(node, t_s + offset_s);
    };
  }
}

}  // namespace

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
  cloud::Provisioner provisioner(opts.provision_seed);

  double global_t = 0;  // virtual time consumed so far (runs + restart delays)
  for (int attempt = 1;; ++attempt) {
    mpi::JobConfig cfg = config;
    cfg.checkpoint_store = store;
    store->begin_attempt();
    install_faults(cfg, schedule, global_t, schedule.next_fatal_after(global_t), attempt,
                   opts.max_attempts);
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
      if (!opts.instance_type.empty()) {
        delay = provisioner.provision(opts.instance_type, opts.instances, opts.placement_group)
                    .ready_after_s;
      }
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
  cloud::SpotRun out;
  mpi::CheckpointStore store;
  cloud::Provisioner provisioner(opts.provision_seed);
  const double horizon_end = opts.t0 + opts.horizon_s;

  double now = opts.t0;
  for (int attempt = 1;; ++attempt) {
    mpi::JobConfig cfg = config;
    cfg.checkpoint_store = &store;
    if (cfg.checkpoint_interval_s <= 0) cfg.checkpoint_interval_s = opts.checkpoint_interval_s;
    store.begin_attempt();

    const double start = attempt <= opts.max_attempts
                             ? market.next_available(now, opts.bid, horizon_end - now)
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
    const double boot =
        provisioner.provision(opts.instance_type, opts.instances, true).ready_after_s;
    out.boot_overhead_s += boot;
    const double run_from = start + boot;

    const double reclaim = market.next_interruption(run_from, opts.bid, horizon_end - run_from);
    if (reclaim >= 0) {
      cfg.faults.kill_at_s = reclaim - run_from;
      cfg.faults.warn_at_s = std::max(0.0, cfg.faults.kill_at_s - opts.warning_s);
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
