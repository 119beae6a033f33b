// Deterministic fault injection, checkpoint/restart and resilience driving
// for the cirrus simulator.
//
// A FaultSchedule holds node crashes drawn from the seeded counter-based
// RNG: the same (model, nodes, horizon, seed) tuple always yields
// bit-identical crash times, because every node draws its exponential
// interarrivals from its own forked substream (query order is irrelevant).
// A crash is fatal: all fibers die at virtual time t (mpi::JobKilledError
// out of run_job).
//
// run_resilient() executes a job under a schedule with checkpoint/restart:
// after each crash the job re-runs from the last committed checkpoint
// (mpi::CheckpointStore), charged a re-provision/boot or requeue delay.
// run_on_spot() is the emergent counterpart of the analytic
// cloud::run_on_spot — it actually simulates each attempt, asking
// cloud::SpotMarket::next_interruption for the reclaims and giving each
// one a two-minute warning.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cloud/cloud.hpp"
#include "mpi/minimpi.hpp"

namespace cirrus::fault {

/// One scheduled node crash. Times are absolute (the resilience driver's
/// clock, which spans restarts); the driver shifts them onto each attempt's
/// clock.
struct FaultEvent {
  double at_s = 0;
  int node = -1;  ///< the node that crashes
};

/// Mean-time-between-failures fault model; 0 disables crashes.
struct FaultModel {
  double crash_mtbf_s = 0;  ///< per-node exponential node crashes
};

/// A pre-generated, deterministic schedule of node crashes.
class FaultSchedule {
 public:
  /// Draws all crashes up to `horizon_s` for `nodes` nodes. Same arguments ⇒
  /// bit-identical schedule, independent of later query order.
  static FaultSchedule generate(const FaultModel& model, int nodes, double horizon_s,
                                std::uint64_t seed);

  /// Inserts a single crash (tests, hand-crafted scenarios).
  void add(const FaultEvent& ev);

  [[nodiscard]] const std::vector<FaultEvent>& events() const noexcept { return events_; }

  /// First crash strictly after `t_s`, or null if none is scheduled.
  [[nodiscard]] const FaultEvent* next_fatal_after(double t_s) const noexcept;

 private:
  void sort_events();
  std::vector<FaultEvent> events_;  // sorted by (at_s, node)
};

/// How run_resilient charges restarts.
struct ResilientOptions {
  /// When set, each restart re-provisions `instances` cc1.4xlarge instances
  /// (in a placement group) through cloud::Provisioner and waits out the
  /// boot; otherwise a fixed HPC-style requeue delay applies instead.
  bool reprovision = false;
  int instances = 1;
  double requeue_delay_s = 60.0;
  /// Cost of holding the allocation, per hour (whole job, not per node).
  double hourly_usd = 0;
};

/// Outcome of a resilient (checkpoint/restart) execution.
struct ResilientRun {
  /// The successful final attempt. Its trace (null unless enable_trace) is
  /// the whole run: every attempt shifted onto the global clock, killed ones
  /// included, so recovery is visible in Perfetto and critpath.
  mpi::JobResult result;
  double makespan_s = 0;      ///< end-to-end: runs + restarts + boots
  double cost_usd = 0;
  int attempts = 1;
  int faults_hit = 0;         ///< crashes that killed an attempt
  double lost_work_s = 0;     ///< simulated seconds rolled back and re-run
  double restart_delay_s = 0; ///< total re-provision / requeue time
  int checkpoints_taken = 0;
  std::size_t checkpoint_bytes = 0;
};

/// Runs `body` under `schedule`, restarting from the last committed
/// checkpoint after each crash, until the job completes. The 64th attempt
/// runs crash-free (a termination guard for schedules denser than any
/// checkpoint interval).
/// `config.checkpoint_interval_s` governs how often apps commit;
/// `config.checkpoint_store` may be preset (to resume an earlier store) or
/// null (an internal store is used).
ResilientRun run_resilient(const mpi::JobConfig& config,
                           const std::function<void(mpi::RankEnv&)>& body,
                           const FaultSchedule& schedule, const ResilientOptions& opts = {});

/// Options for the simulated spot execution on cc1.4xlarge instances.
struct SpotJobOptions {
  double bid = 0.62;
  double checkpoint_interval_s = 900.0;
  int instances = 1;
  double on_demand_hourly_usd = 1.60;
  std::uint64_t provision_seed = 1;
};

/// Executes a real simulated job on spot instances: waits for price <= bid
/// windows, charges Provisioner boots, runs under reclaim kills (each after
/// a 120 s warning) with checkpoint/restart, and falls back to on-demand
/// when a quarter (90 days) passes without spot capacity or 200 attempts are
/// spent. Returns the same accounting as the analytic cloud::run_on_spot,
/// but with every field emergent from simulation.
cloud::SpotRun run_on_spot(cloud::SpotMarket& market, const mpi::JobConfig& config,
                           const std::function<void(mpi::RankEnv&)>& body,
                           const SpotJobOptions& opts = {});

}  // namespace cirrus::fault
