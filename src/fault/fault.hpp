// Deterministic fault injection, checkpoint/restart and resilience driving
// for the cirrus simulator.
//
// A FaultSchedule is generated from the seeded counter-based RNG — the same
// (model, nodes, horizon, seed) tuple always yields bit-identical fault
// times, because every (node, fault class) pair draws its exponential
// interarrivals from its own forked substream (query order is irrelevant).
// The schedule drives three injectors over a job:
//
//   * node crash        — fatal: all fibers die at virtual time t
//                         (mpi::JobKilledError out of run_job);
//   * straggler         — multiplicative compute-rate degradation on one
//                         node over a window (hypervisor stall);
//   * link degradation  — bandwidth drop / latency storm on one node's NIC,
//                         fed into the net cost model.
//
// A hand-added SpotReclaim event (FaultSchedule::add) is fatal like a crash,
// after its warning_s notice. Spot interruptions driven by the market are
// run_on_spot()'s job: it asks cloud::SpotMarket::next_interruption itself.
//
// run_resilient() executes a job under a schedule with checkpoint/restart:
// after each fatal fault the job re-runs from the last committed checkpoint
// (mpi::CheckpointStore), charged a re-provision/boot or requeue delay.
// run_on_spot() is the emergent counterpart of the analytic
// cloud::run_on_spot — it actually simulates each attempt.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cloud/cloud.hpp"
#include "mpi/minimpi.hpp"

namespace cirrus::fault {

enum class FaultKind : char {
  NodeCrash = 'C',
  SpotReclaim = 'R',
  Straggler = 'S',
  LinkDegrade = 'L',
};

/// One scheduled fault. Times are absolute (the resilience driver's clock,
/// which spans restarts); the driver shifts them onto each attempt's clock.
struct FaultEvent {
  FaultKind kind = FaultKind::NodeCrash;
  double at_s = 0;
  int node = -1;             ///< affected node; -1: whole job (spot reclaim)
  double duration_s = 0;     ///< straggler / link-degradation window length
  double magnitude = 1.0;    ///< compute slowdown factor, or bandwidth fraction
  double extra_latency_us = 0;  ///< added one-way latency (link faults)
  double warning_s = 0;      ///< advance warning before a fatal fault
};

/// Mean-time-between-failures fault model; a rate of 0 disables that class.
struct FaultModel {
  double crash_mtbf_s = 0;              ///< per-node exponential node crashes
  double straggler_mtbf_s = 0;          ///< per-node hypervisor stalls
  double straggler_duration_s = 120.0;
  double straggler_slowdown = 4.0;      ///< compute-time multiplier in-window
  double link_mtbf_s = 0;               ///< per-node NIC degradation episodes
  double link_duration_s = 60.0;
  double link_bw_fraction = 0.2;        ///< bandwidth left during the episode
  double link_extra_latency_us = 500.0;
};

/// A pre-generated, deterministic schedule of fault events.
class FaultSchedule {
 public:
  /// Draws all events up to `horizon_s` for `nodes` nodes. Same arguments ⇒
  /// bit-identical schedule, independent of later query order.
  static FaultSchedule generate(const FaultModel& model, int nodes, double horizon_s,
                                std::uint64_t seed);

  /// Inserts a single event (tests, hand-crafted scenarios).
  void add(const FaultEvent& ev);

  [[nodiscard]] const std::vector<FaultEvent>& events() const noexcept { return events_; }
  [[nodiscard]] const FaultModel& model() const noexcept { return model_; }

  /// First fatal event (NodeCrash or SpotReclaim) strictly after `t_s`, or
  /// null if none is scheduled.
  [[nodiscard]] const FaultEvent* next_fatal_after(double t_s) const noexcept;
  /// Compute-time multiplier for `node` at absolute time `t_s` (>= 1).
  [[nodiscard]] double compute_slowdown(int node, double t_s) const noexcept;
  /// Fraction of nominal NIC bandwidth available for `node` at `t_s` (<= 1).
  [[nodiscard]] double link_bw_factor(int node, double t_s) const noexcept;
  /// Extra one-way wire latency for `node` at `t_s`, microseconds.
  [[nodiscard]] double link_extra_latency_us(int node, double t_s) const noexcept;
  [[nodiscard]] bool has_stragglers() const noexcept { return stragglers_ > 0; }
  [[nodiscard]] bool has_link_faults() const noexcept { return link_faults_ > 0; }

 private:
  void sort_events();
  FaultModel model_;
  std::vector<FaultEvent> events_;  // sorted by (at_s, node, kind)
  int stragglers_ = 0;
  int link_faults_ = 0;
};

/// How run_resilient charges restarts.
struct ResilientOptions {
  /// When non-empty, each restart re-provisions `instances` of this type
  /// through cloud::Provisioner and waits out the boot; when empty, a fixed
  /// HPC-style requeue delay applies instead.
  std::string instance_type;
  int instances = 1;
  bool placement_group = true;
  double requeue_delay_s = 60.0;
  /// Cost of holding the allocation, per hour (whole job, not per node).
  double hourly_usd = 0;
  /// After this many killed attempts the remaining run executes fault-free
  /// (termination guard for schedules denser than any checkpoint interval).
  int max_attempts = 64;
  std::uint64_t provision_seed = 1;
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
  int faults_hit = 0;         ///< fatal faults that killed an attempt
  double lost_work_s = 0;     ///< simulated seconds rolled back and re-run
  double restart_delay_s = 0; ///< total re-provision / requeue time
  int checkpoints_taken = 0;
  std::size_t checkpoint_bytes = 0;
};

/// Runs `body` under `schedule`, restarting from the last committed
/// checkpoint after each fatal fault, until the job completes.
/// `config.checkpoint_interval_s` governs how often apps commit;
/// `config.checkpoint_store` may be preset (to resume an earlier store) or
/// null (an internal store is used).
ResilientRun run_resilient(const mpi::JobConfig& config,
                           const std::function<void(mpi::RankEnv&)>& body,
                           const FaultSchedule& schedule, const ResilientOptions& opts = {});

/// Options for the simulated spot execution.
struct SpotJobOptions {
  double bid = 0.62;
  double checkpoint_interval_s = 900.0;
  std::string instance_type = "cc1.4xlarge";
  int instances = 1;
  double on_demand_hourly_usd = 1.60;
  double horizon_s = 90.0 * 86400.0;   ///< give up on spot after a quarter
  double t0 = 0;
  double warning_s = 120.0;            ///< reclaim notice before the kill
  int max_attempts = 200;              ///< then fall back to on-demand
  std::uint64_t provision_seed = 1;
};

/// Executes a real simulated job on spot instances: waits for price <= bid
/// windows, charges Provisioner boots, runs under reclaim kills with
/// checkpoint/restart, and falls back to on-demand when the horizon (or the
/// attempt budget) is exhausted. Returns the same accounting as the analytic
/// cloud::run_on_spot, but with every field emergent from simulation.
cloud::SpotRun run_on_spot(cloud::SpotMarket& market, const mpi::JobConfig& config,
                           const std::function<void(mpi::RankEnv&)>& body,
                           const SpotJobOptions& opts = {});

}  // namespace cirrus::fault
