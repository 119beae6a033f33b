#include "cloud/wf_sched.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "cloud/cloud.hpp"

namespace cirrus::cloud {

namespace {
/// The reference core the compute model is calibrated on (DCC's E5520).
constexpr double kRefClockGhz = 2.27;
}  // namespace

WfPolicy wf_policy_from_string(const std::string& s) {
  std::string v = s;
  for (auto& c : v) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (v == "heft") return WfPolicy::Heft;
  if (v == "fifo") return WfPolicy::Fifo;
  throw std::invalid_argument("wf policy: heft|fifo expected, got '" + s + "'");
}

const char* to_string(WfPolicy p) noexcept {
  return p == WfPolicy::Heft ? "heft" : "fifo";
}

WfCostModel WfCostModel::estimate(const plat::Platform& p, const storage::Model& m) {
  WfCostModel c;
  c.compute_scale = (kRefClockGhz / p.compute.clock_ghz) * p.compute.virt_overhead;
  // Aggregate streaming rate: every server can carry one stream, and a
  // workflow keeps several in flight, so the planner prices bytes at the
  // backend's total bandwidth rather than a single server's.
  const double n = static_cast<double>(m.servers < 1 ? 1 : m.servers);
  c.read_s_per_byte = 1.0 / (m.read_Bps * n);
  c.write_s_per_byte = 1.0 / (m.write_Bps * n);
  c.per_open_s = m.open_latency_ms * 1e-3;
  return c;
}

double WfCostModel::task_seconds(const wf::Task& t) const {
  double s = t.ref_seconds * compute_scale;
  if (t.ext_in_bytes > 0) s += edge_seconds(t.ext_in_bytes);
  if (t.out_bytes > 0) {
    s += per_open_s + static_cast<double>(t.out_bytes) * write_s_per_byte;
  }
  return s;
}

double WfCostModel::edge_seconds(std::size_t bytes) const {
  return per_open_s + static_cast<double>(bytes) * read_s_per_byte;
}

namespace {

wf::Plan plan_heft(const wf::Dag& dag, int workers, const WfCostModel& costs) {
  const std::size_t n = static_cast<std::size_t>(dag.n_tasks());

  // Upward ranks, computed in reverse topological (= reverse id) order:
  // rank[t] = w[t] + max over successors (edge + rank[succ]). Since every
  // predecessor strictly out-ranks its successors, the rank-sorted order is
  // a valid dispatch order.
  std::vector<double> w(n), rank(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) w[i] = costs.task_seconds(dag.tasks[i]);
  for (std::size_t i = n; i-- > 0;) {
    double best = 0.0;
    for (const int s : dag.succs[i]) {
      const double through =
          costs.edge_seconds(dag.tasks[i].out_bytes) + rank[static_cast<std::size_t>(s)];
      best = std::max(best, through);
    }
    rank[i] = w[i] + best;
  }

  std::vector<int> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return rank[static_cast<std::size_t>(a)] >
                                              rank[static_cast<std::size_t>(b)]; });

  // Earliest-finish-time assignment: a dependency read is free when the
  // producer ran on the same worker (node-local scratch), otherwise it is
  // staged through the backend and also delays the start.
  std::vector<int> assigned(n, 0);
  std::vector<double> finish(n, 0.0);
  std::vector<double> worker_free(static_cast<std::size_t>(workers), 0.0);
  double makespan = 0.0;
  for (const int t : order) {
    const wf::Task& task = dag.tasks[static_cast<std::size_t>(t)];
    int best_w = 0;
    double best_eft = 0.0;
    for (int cand = 0; cand < workers; ++cand) {
      double est = worker_free[static_cast<std::size_t>(cand)];
      double stage = 0.0;
      for (const int d : task.deps) {
        est = std::max(est, finish[static_cast<std::size_t>(d)]);
        if (assigned[static_cast<std::size_t>(d)] != cand) {
          stage += costs.edge_seconds(dag.tasks[static_cast<std::size_t>(d)].out_bytes);
        }
      }
      const double eft = est + stage + w[static_cast<std::size_t>(t)];
      if (cand == 0 || eft < best_eft) {
        best_w = cand;
        best_eft = eft;
      }
    }
    assigned[static_cast<std::size_t>(t)] = best_w;
    finish[static_cast<std::size_t>(t)] = best_eft;
    worker_free[static_cast<std::size_t>(best_w)] = best_eft;
    makespan = std::max(makespan, best_eft);
  }

  wf::Plan plan;
  plan.workers = workers;
  plan.worker_of = std::move(assigned);
  plan.order = std::move(order);
  plan.predicted_makespan_s = makespan;
  return plan;
}

}  // namespace

wf::Plan plan_workflow(const wf::Dag& dag, int workers, WfPolicy policy,
                       const WfCostModel& costs) {
  if (workers < 1) throw std::invalid_argument("wf plan: workers must be >= 1");
  if (dag.n_tasks() == 0) throw std::invalid_argument("wf plan: empty dag");
  if (policy == WfPolicy::Heft) return plan_heft(dag, workers, costs);
  wf::Plan plan;
  plan.workers = workers;
  return plan;
}

WfCost price_workflow(int instances, double makespan_s, std::uint64_t seed) {
  Provisioner prov(seed);
  const Cluster cluster = prov.provision(instances);
  WfCost cost;
  cost.ready_after_s = cluster.ready_after_s;
  cost.hourly_usd = cluster.hourly_usd;
  cost.cost_usd = cluster.hourly_usd * (cluster.ready_after_s + makespan_s) / 3600.0;
  return cost;
}

}  // namespace cirrus::cloud
