// Cloud provisioning, pricing, prediction and scheduling substrates.
//
// The paper's long-term goal (§II, §VI) is a facility that packages its HPC
// environment into VMs and *cloud-bursts*: sends suitable queued jobs to a
// private/public cloud when local resources are saturated, guided by
// ARRIVE-F-style profiles and (future work) EC2 spot pricing. This module
// implements those pieces:
//
//  * Provisioner   — StarCluster-like: boots the paper's cc1.4xlarge
//                    instances (Table I) in one cluster placement group and
//                    assembles a plat::Platform from them;
//  * SpotMarket    — a seeded mean-reverting spot-price process with
//                    bid-based interruption;
//  * ArriveF       — cross-platform runtime prediction from an IPM profile
//                    (per-message-size repricing of communication, compute
//                    model ratios, filesystem ratios), after Atif &
//                    Strazdins' ARRIVE-F;
//  * BatchScheduler— an ANUPBS-like FIFO + suspend/resume queue simulator
//                    with a cloud-burst policy and cost accounting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ipm/ipm.hpp"
#include "platform/platform.hpp"
#include "sim/rng.hpp"

namespace cirrus::cloud {

// ---------------------------------------------------------------------------
// Provisioning (StarCluster-like).
// ---------------------------------------------------------------------------

/// A provisioned cluster: a Platform plus readiness/cost metadata.
struct Cluster {
  plat::Platform platform;
  double ready_after_s = 0;  ///< time until the slowest instance booted
  double hourly_usd = 0;
};

/// Assembles cc1.4xlarge clusters, StarCluster style.
class Provisioner {
 public:
  explicit Provisioner(std::uint64_t seed = 1) : rng_(sim::Rng(seed).fork(0xC10D)) {}

  /// Launches `n` cc1.4xlarge instances in one cluster placement group: each
  /// node is plat::ec2(), billed at $1.60 per instance-hour, and the cluster
  /// is ready when the slowest instance has booted.
  Cluster provision(int n);

 private:
  sim::Rng rng_;
};

// ---------------------------------------------------------------------------
// Spot market.
// ---------------------------------------------------------------------------

/// A seeded mean-reverting spot price process with bid interruptions: the
/// price reverts towards a $0.60 mean, moves every 300 s, and is capped at
/// the on-demand price.
class SpotMarket {
 public:
  explicit SpotMarket(std::uint64_t seed);

  /// Price at time t (piecewise constant per step; deterministic per seed).
  double price_at(double t_seconds);

  /// First time >= t at which the price exceeds `bid` (an interruption), or
  /// a negative value if none occurs before `horizon`.
  double next_interruption(double t_seconds, double bid, double horizon_seconds);

  /// First time >= t at which the price is at or below `bid` (capacity comes
  /// back), or a negative value if none occurs before `horizon`.
  double next_available(double t_seconds, double bid, double horizon_seconds);

  /// Integrated cost of holding `instances` from t0 to t1 at spot.
  double cost(double t0, double t1, int instances);

 private:
  void extend_to(double t_seconds);

  sim::Rng rng_;
  std::vector<double> prices_;  // per step
};

// ---------------------------------------------------------------------------
// ARRIVE-F prediction.
// ---------------------------------------------------------------------------

/// Executes a `runtime_s` job on spot instances starting at `t0`: runs in
/// price<=bid windows, loses progress back to the last checkpoint on each
/// interruption, and accumulates the integrated spot cost. Falls back to
/// on-demand (price-capped) completion if the horizon is exhausted.
/// Accounting of one spot execution. Filled identically by the analytic
/// closed-form path below and by the simulated path (fault::run_on_spot), so
/// results from either are directly comparable.
struct SpotRun {
  double finish_s = 0;
  double cost_usd = 0;
  int interruptions = 0;
  int attempts = 1;            ///< run attempts = interruptions + final run
  double lost_work_s = 0;      ///< progress rolled back to the last checkpoint
  double boot_overhead_s = 0;  ///< provisioning/boot time (0 on the analytic path)
  double on_demand_s = 0;      ///< seconds completed on the on-demand fallback
  bool finished_on_demand = false;
};
SpotRun run_on_spot(SpotMarket& market, double t0, double runtime_s, double bid,
                    double checkpoint_interval_s, int instances,
                    double on_demand_hourly_usd);

/// A cross-platform runtime prediction.
struct Prediction {
  double seconds = 0;
  double comp_seconds = 0;
  double comm_seconds = 0;
  double io_seconds = 0;
};

/// Predicts a job's runtime on another platform from its IPM profile:
/// computation is scaled by the compute-model factor ratio, communication is
/// repriced per (call kind x message size) histogram cell with each
/// platform's network model, and I/O by filesystem bandwidth ratio.
Prediction predict_runtime(const ipm::JobReport& profile, const plat::Platform& src,
                           const plat::Platform& dst, int np, int src_max_rpn, int dst_max_rpn,
                           const plat::WorkloadTraits& traits);

/// Classifies cloud suitability: the predicted slowdown of moving the job
/// from `src` to `dst` (the paper's candidate-workload metric). < ~1.5
/// means the job is a good cloud-burst candidate.
double cloud_slowdown(const ipm::JobReport& profile, const plat::Platform& src,
                      const plat::Platform& dst, int np, const plat::WorkloadTraits& traits);

// ---------------------------------------------------------------------------
// Batch scheduling with cloud-bursting (ANUPBS-like).
// ---------------------------------------------------------------------------

/// A job submitted to the facility queue.
struct JobSpec {
  std::string name;
  int cores = 8;
  double runtime_local_s = 3600;  ///< runtime on the local HPC cluster
  double cloud_slowdown = 1.5;    ///< runtime multiplier on the cloud
  double submit_s = 0;
  bool cloud_eligible = true;
  /// Higher priority may suspend running lower-priority jobs (the ANUPBS
  /// suspend-resume scheme the paper's facility uses).
  int priority = 0;
};

/// Per-job outcome.
struct JobOutcome {
  std::string name;
  double start_s = 0;   ///< first start
  double finish_s = 0;
  double wait_s = 0;    ///< queue wait before the first start
  bool ran_on_cloud = false;
  int suspensions = 0;  ///< times the job was preempted and later resumed
};

struct ScheduleResult {
  std::vector<JobOutcome> jobs;
  double mean_wait_s = 0;
  double max_wait_s = 0;
  double makespan_s = 0;
  double cloud_cost_usd = 0;
  int cloud_jobs = 0;
};

/// FIFO-with-cloudburst facility scheduler (event-driven, standalone) for a
/// 64-core facility. A burst job boots for 120 s and rents one cc1.4xlarge
/// per 8 cores at the on-demand price, billed by the started hour.
class BatchScheduler {
 public:
  struct Options {
    /// Burst when the projected queue wait exceeds this and the job's
    /// cloud_slowdown is at most 1.8. <0: never burst.
    double burst_wait_threshold_s = -1;
    /// Allow higher-priority arrivals to suspend running jobs.
    bool suspend_resume = true;
  };

  explicit BatchScheduler(const Options& opts) : opts_(opts) {}

  /// Schedules the jobs (FIFO order by submit time; no backfill past the
  /// queue head) and returns the outcomes.
  ScheduleResult run(std::vector<JobSpec> jobs) const;

 private:
  Options opts_;
};

}  // namespace cirrus::cloud
