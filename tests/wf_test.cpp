// Tests for the workflow subsystem: DAG generator, HEFT/FIFO planners, the
// master/worker runtime, and ext7 manifest determinism across sweep worker
// counts.
#include "wf/dag.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "bench/registry.hpp"
#include "cloud/wf_sched.hpp"
#include "core/options.hpp"
#include "valid/manifest.hpp"
#include "wf/runtime.hpp"

namespace cloud = cirrus::cloud;
namespace core = cirrus::core;
namespace mpi = cirrus::mpi;
namespace plat = cirrus::plat;
namespace storage = cirrus::storage;
namespace valid = cirrus::valid;
namespace wf = cirrus::wf;

namespace {

wf::GenOptions gen_opts(wf::Shape shape, int width = 0, std::uint64_t seed = 1) {
  wf::GenOptions g;
  g.shape = shape;
  g.width = width;
  g.seed = seed;
  return g;
}

}  // namespace

TEST(WfDag, ShapeStringsRoundTrip) {
  for (const auto s : {wf::Shape::Diamond, wf::Shape::Montage, wf::Shape::Epigenomics,
                       wf::Shape::Broadband}) {
    EXPECT_EQ(wf::shape_from_string(wf::to_string(s)), s);
  }
  EXPECT_THROW(wf::shape_from_string("cybershake"), std::invalid_argument);
}

TEST(WfDag, ShapesHaveExpectedStructure) {
  // montage(W): W project + (W-1) fits + concat + bgmodel + W background
  //             + add + shrink = 3W + 3
  EXPECT_EQ(wf::generate(gen_opts(wf::Shape::Montage, 16)).n_tasks(), 51);
  // epigenomics(W): split + 4 per pipeline + merge/index/pileup = 4W + 4
  EXPECT_EQ(wf::generate(gen_opts(wf::Shape::Epigenomics, 8)).n_tasks(), 36);
  // broadband(W): 3 per site + peaks + plot = 3W + 2
  EXPECT_EQ(wf::generate(gen_opts(wf::Shape::Broadband, 8)).n_tasks(), 26);
  // diamond(W): src + W + sink
  EXPECT_EQ(wf::generate(gen_opts(wf::Shape::Diamond, 8)).n_tasks(), 10);
}

TEST(WfDag, TasksAreTopologicallyOrderedWithConsistentSuccs) {
  const auto dag = wf::generate(gen_opts(wf::Shape::Montage, 12, 42));
  ASSERT_EQ(dag.succs.size(), dag.tasks.size());
  std::size_t edges = 0;
  for (const auto& t : dag.tasks) {
    for (const int d : t.deps) {
      ASSERT_LT(d, t.id);
      const auto& fw = dag.succs[static_cast<std::size_t>(d)];
      EXPECT_NE(std::find(fw.begin(), fw.end(), t.id), fw.end());
    }
    edges += t.deps.size();
  }
  std::size_t fw_edges = 0;
  for (const auto& s : dag.succs) fw_edges += s.size();
  EXPECT_EQ(edges, fw_edges);
}

TEST(WfDag, GenerationIsByteStablePerSeedAndSensitiveToIt) {
  for (const auto s : {wf::Shape::Diamond, wf::Shape::Montage, wf::Shape::Epigenomics,
                       wf::Shape::Broadband}) {
    const std::string a = wf::dump(wf::generate(gen_opts(s, 0, 9)));
    const std::string b = wf::dump(wf::generate(gen_opts(s, 0, 9)));
    EXPECT_EQ(a, b) << wf::to_string(s);
    EXPECT_NE(a, wf::dump(wf::generate(gen_opts(s, 0, 10)))) << wf::to_string(s);
  }
}

TEST(WfSched, HeftPlanIsWellFormed) {
  const auto dag = wf::generate(gen_opts(wf::Shape::Epigenomics, 8));
  const auto costs = cloud::WfCostModel::estimate(
      plat::ec2(), storage::model_for(plat::ec2(), storage::Backend::Object));
  const auto plan = cloud::plan_workflow(dag, 6, cloud::WfPolicy::Heft, costs);

  EXPECT_EQ(plan.workers, 6);
  ASSERT_EQ(plan.worker_of.size(), static_cast<std::size_t>(dag.n_tasks()));
  ASSERT_EQ(plan.order.size(), static_cast<std::size_t>(dag.n_tasks()));
  EXPECT_GT(plan.predicted_makespan_s, 0.0);
  for (const int w : plan.worker_of) {
    EXPECT_GE(w, 0);
    EXPECT_LT(w, 6);
  }
  // Upward ranks guarantee every producer is dispatched before its consumer.
  std::vector<int> pos(static_cast<std::size_t>(dag.n_tasks()));
  for (std::size_t i = 0; i < plan.order.size(); ++i) {
    pos[static_cast<std::size_t>(plan.order[i])] = static_cast<int>(i);
  }
  for (const auto& t : dag.tasks) {
    for (const int d : t.deps) {
      EXPECT_LT(pos[static_cast<std::size_t>(d)], pos[static_cast<std::size_t>(t.id)]);
    }
  }
}

TEST(WfSched, FifoPlanLeavesAssignmentDynamic) {
  const auto dag = wf::generate(gen_opts(wf::Shape::Diamond, 4));
  const auto costs = cloud::WfCostModel::estimate(
      plat::dcc(), storage::model_for(plat::dcc(), storage::Backend::Nfs));
  const auto plan = cloud::plan_workflow(dag, 3, cloud::WfPolicy::Fifo, costs);
  EXPECT_TRUE(plan.worker_of.empty());
  EXPECT_EQ(plan.predicted_makespan_s, 0.0);
  EXPECT_THROW(cloud::plan_workflow(dag, 0, cloud::WfPolicy::Fifo, costs),
               std::invalid_argument);
}

TEST(WfRuntime, DiamondRunsEndToEndAndIsDeterministic) {
  const auto dag = wf::generate(gen_opts(wf::Shape::Diamond, 6));
  const auto costs = cloud::WfCostModel::estimate(
      plat::dcc(), storage::model_for(plat::dcc(), storage::Backend::Lustre));
  const auto plan = cloud::plan_workflow(dag, 4, cloud::WfPolicy::Heft, costs);

  mpi::JobConfig cfg;
  cfg.platform = plat::dcc();
  cfg.max_ranks_per_node = 4;  // force two nodes so locality accounting runs
  cfg.seed = 3;
  cfg.execute = false;
  cfg.storage_backend = storage::Backend::Lustre;

  const auto a = wf::run(dag, plan, cfg);
  EXPECT_EQ(a.tasks, static_cast<std::uint64_t>(dag.n_tasks()));
  EXPECT_GT(a.makespan_s, 0.0);
  // Every input file is accounted exactly once: external inputs are always
  // staged; each dependency edge is either a scratch hit or a staged file.
  std::uint64_t ext_files = 0, edge_files = 0;
  for (const auto& t : dag.tasks) {
    ext_files += t.ext_in_bytes > 0 ? 1 : 0;
    edge_files += t.deps.size();
  }
  EXPECT_EQ(a.staged_files + a.scratch_hits, ext_files + edge_files);
  EXPECT_GT(a.job.storage_stats.writes, 0U);

  const auto b = wf::run(dag, plan, cfg);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.job.events_processed, b.job.events_processed);
  EXPECT_EQ(a.staged_bytes, b.staged_bytes);
}

TEST(WfRuntime, FifoRunCoversAllTasksToo) {
  const auto dag = wf::generate(gen_opts(wf::Shape::Broadband, 4));
  const auto costs = cloud::WfCostModel::estimate(
      plat::ec2(), storage::model_for(plat::ec2(), storage::Backend::Object));
  const auto plan = cloud::plan_workflow(dag, 4, cloud::WfPolicy::Fifo, costs);
  mpi::JobConfig cfg;
  cfg.platform = plat::ec2();
  cfg.seed = 5;
  cfg.execute = false;
  cfg.storage_backend = storage::Backend::Object;
  const auto r = wf::run(dag, plan, cfg);
  EXPECT_EQ(r.tasks, static_cast<std::uint64_t>(dag.n_tasks()));
  EXPECT_GT(r.job.storage_stats.reads, 0U);
}

TEST(WfRuntime, MalformedPlansAreRejected) {
  const auto dag = wf::generate(gen_opts(wf::Shape::Diamond, 2));
  mpi::JobConfig cfg;
  cfg.platform = plat::dcc();
  wf::Plan plan;
  plan.workers = 2;
  plan.worker_of = {0, 1};  // wrong size (dag has 4 tasks)
  EXPECT_THROW(wf::run(dag, plan, cfg), std::invalid_argument);
  plan.worker_of = {0, 1, 2, 0};  // worker 2 out of range
  EXPECT_THROW(wf::run(dag, plan, cfg), std::invalid_argument);
  plan.worker_of.clear();
  plan.order = {0, 0, 1, 2};  // not a permutation
  EXPECT_THROW(wf::run(dag, plan, cfg), std::invalid_argument);
}

// The ext7 bench must serialise to a byte-identical manifest whether the
// sweep runs on 1 or 8 host workers — the same guarantee the paper suites
// carry.
TEST(WfBench, Ext7ManifestIsByteIdenticalAcrossJobs) {
  const auto* target = cirrus::bench::find_target("ext7");
  ASSERT_NE(target, nullptr);

  const auto manifest = [&](int jobs) {
    const std::string jobs_str = std::to_string(jobs);
    const char* argv[] = {"ext7", "--jobs", jobs_str.c_str()};
    const core::Options opts(3, argv);
    valid::RunReport report;
    EXPECT_EQ(target->fn(opts, report), 0);
    report.target = "ext7";
    report.host_ms = 0;  // the one host-dependent field
    valid::ManifestContext ctx;
    ctx.suite = "ext7-test";
    ctx.git_sha = "fixture";
    ctx.include_platforms = false;
    ctx.include_nondeterministic = false;
    return valid::manifest_json(ctx, {report}, {});
  };

  const std::string base = manifest(1);
  EXPECT_EQ(base, manifest(8));
  EXPECT_NE(base.find("montage_makespan_s"), std::string::npos);
}
