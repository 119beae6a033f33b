// Workflow planning: maps a wf::Dag onto a worker pool before execution.
//
// Two policies:
//  * Heft — Heterogeneous-Earliest-Finish-Time list scheduling
//    (Topcuoglu et al.): tasks are ranked by upward rank (critical-path
//    distance to the exit, compute plus data-staging costs) and greedily
//    assigned to the worker giving the earliest finish, crediting free
//    node-local reuse when producer and consumer share a worker. Produces a
//    static plan plus a makespan prediction.
//  * Fifo — no static mapping: the runtime master hands ready tasks to idle
//    workers in id order. The baseline a data-aware plan is judged against.
//
// Costs come from WfCostModel::estimate, which collapses the platform's
// compute model and a storage::Model into four scalars — deliberately
// cruder than the simulator (that is the point: the planner predicts, the
// simulator arbitrates, ext7 reports the ratio).
#pragma once

#include <cstdint>
#include <string>

#include "platform/platform.hpp"
#include "storage/storage.hpp"
#include "wf/dag.hpp"
#include "wf/runtime.hpp"

namespace cirrus::cloud {

enum class WfPolicy { Heft, Fifo };

/// Parses "heft" | "fifo" (case-insensitive); throws std::invalid_argument.
WfPolicy wf_policy_from_string(const std::string& s);
const char* to_string(WfPolicy p) noexcept;

/// Scalar cost model the planner reasons with.
struct WfCostModel {
  double compute_scale = 1.0;   ///< simulated seconds per reference second
  double read_s_per_byte = 0;   ///< staging a dependency/external input
  double write_s_per_byte = 0;  ///< writing an output file
  double per_open_s = 0;        ///< per-file open/request cost

  /// Derives the scalars from a platform and a storage backend model:
  /// compute from the clock ratio and virtualisation overhead, bandwidth
  /// from the backend's aggregate streaming rate across its servers.
  static WfCostModel estimate(const plat::Platform& p, const storage::Model& m);

  /// Planner's duration estimate for one task (compute + its own I/O).
  [[nodiscard]] double task_seconds(const wf::Task& t) const;
  /// Planner's cost of staging `bytes` through the backend.
  [[nodiscard]] double edge_seconds(std::size_t bytes) const;
};

/// Builds a wf::Plan for `workers` workers. Heft fills worker_of/order and
/// predicted_makespan_s; Fifo leaves worker_of empty (dynamic assignment).
wf::Plan plan_workflow(const wf::Dag& dag, int workers, WfPolicy policy,
                       const WfCostModel& costs);

/// Price of renting a freshly provisioned cc1.4xlarge cluster of `instances`
/// for one workflow: boot latency plus makespan, billed at the cluster's
/// hourly rate.
struct WfCost {
  double ready_after_s = 0;
  double hourly_usd = 0;
  double cost_usd = 0;
};
WfCost price_workflow(int instances, double makespan_s, std::uint64_t seed);

}  // namespace cirrus::cloud
