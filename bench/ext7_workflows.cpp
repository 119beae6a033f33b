// Extension: scientific-workflow DAG sweep (shape x platform x storage
// backend x scheduler).
//
// The paper benchmarks tightly coupled MPI codes, but the workloads a
// facility actually bursts to the cloud are often workflow-shaped: DAGs of
// serial tasks coupled through files (Juve et al.'s Montage, Epigenomics
// and Broadband characterisations). Those stress exactly the dimension the
// paper's platforms differ most on after the interconnect — the shared
// storage: Vayu's striped parallel FS, DCC's single contended NFS server,
// and an S3-like object store with per-request latency. This sweep runs
// each workflow shape on each platform over each storage backend with a
// HEFT-planned 8-worker pool, reports makespan, staged traffic and (on
// EC2) dollar cost, and contrasts HEFT with dynamic FIFO dispatch where
// the object store makes data movement expensive.
//
// Everything is seeded and results are stored in index order: output is
// byte-identical for any --jobs value.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/blame.hpp"
#include "bench/registry.hpp"
#include "cloud/wf_sched.hpp"
#include "core/driver.hpp"
#include "core/options.hpp"
#include "core/table.hpp"
#include "storage/storage.hpp"
#include "wf/dag.hpp"
#include "wf/runtime.hpp"

CIRRUS_BENCH_TARGET_BLAME(
    ext7, "ext", "Scientific-workflow DAG sweep: shape x platform x storage x scheduler") {
  using namespace cirrus;
  const int jobs = opts.get_int("jobs", 0);
  const std::uint64_t seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));

  const int workers = 8;
  const int rpn = 8;  // workers + master span two nodes: locality is real
  struct ShapeSpec {
    wf::Shape shape;
    int width;
  };
  const ShapeSpec shapes[] = {{wf::Shape::Montage, 12},
                              {wf::Shape::Epigenomics, 8},
                              {wf::Shape::Broadband, 8}};
  const char* platforms[] = {"vayu", "dcc", "ec2"};
  const storage::Backend backends[] = {storage::Backend::Nfs, storage::Backend::Lustre,
                                       storage::Backend::Object};

  struct Point {
    std::size_t shape, platform, backend;
    cloud::WfPolicy policy;
  };
  std::vector<Point> points;
  for (std::size_t s = 0; s < std::size(shapes); ++s) {
    for (std::size_t p = 0; p < std::size(platforms); ++p) {
      for (std::size_t b = 0; b < std::size(backends); ++b) {
        points.push_back({s, p, b, cloud::WfPolicy::Heft});
      }
    }
  }
  // FIFO contrast where staging is dearest: the object store on EC2.
  for (std::size_t s = 0; s < std::size(shapes); ++s) {
    points.push_back({s, 2, 2, cloud::WfPolicy::Fifo});
  }

  struct R {
    double makespan_s = 0, predicted_s = 0, staged_mb = 0, scratch_mb = 0, cost_usd = 0;
    std::uint64_t staged_files = 0, scratch_hits = 0, events = 0;
    std::string storage_name;
  };
  const auto results = core::run_sweep_labeled<R>(
      points.size(),
      [&](std::size_t i) {
        const Point& pt = points[i];
        wf::GenOptions gen;
        gen.shape = shapes[pt.shape].shape;
        gen.width = shapes[pt.shape].width;
        gen.seed = seed;
        const wf::Dag dag = wf::generate(gen);

        mpi::JobConfig cfg;
        cfg.platform = plat::by_name(platforms[pt.platform]);
        cfg.max_ranks_per_node = rpn;
        cfg.seed = seed;
        cfg.execute = false;
        cfg.storage_backend = backends[pt.backend];
        const auto costs = cloud::WfCostModel::estimate(
            cfg.platform, storage::model_for(cfg.platform, cfg.storage_backend));
        const wf::Plan plan = cloud::plan_workflow(dag, workers, pt.policy, costs);
        const wf::Result res = wf::run(dag, plan, cfg);

        R r;
        r.makespan_s = res.makespan_s;
        r.predicted_s = plan.predicted_makespan_s;
        r.staged_mb = static_cast<double>(res.staged_bytes) / 1e6;
        r.scratch_mb = static_cast<double>(res.scratch_bytes) / 1e6;
        r.staged_files = res.staged_files;
        r.scratch_hits = res.scratch_hits;
        r.storage_name = res.job.storage_name;
        r.events = res.job.events_processed;
        if (pt.platform == 2) {
          r.cost_usd = cloud::price_workflow("cc1.4xlarge", 2, /*placement_group=*/true,
                                             res.makespan_s, seed)
                           .cost_usd;
        }
        const std::string label = dag.name + " / " + platforms[pt.platform] + " / " +
                                  storage::to_string(backends[pt.backend]) + " / " +
                                  cloud::to_string(pt.policy);
        return core::Labeled<R>{label, r};
      },
      jobs);
  for (const auto& r : results) report.events += r.value.events;

  core::Table t({"workflow", "platform", "storage", "sched", "T (s)", "pred (s)",
                 "staged MB", "scratch MB", "$"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& pt = points[i];
    const R& r = results[i].value;
    const std::string shape_name = wf::to_string(shapes[pt.shape].shape);
    t.row()
        .add(shape_name)
        .add(platforms[pt.platform])
        .add(r.storage_name)
        .add(cloud::to_string(pt.policy))
        .add(r.makespan_s, 3)
        .add(r.predicted_s, 3)
        .add(r.staged_mb, 1)
        .add(r.scratch_mb, 1)
        .add(r.cost_usd, 3);
    const std::string where =
        valid::slug(std::string(platforms[pt.platform]) + "_" +
                    storage::to_string(backends[pt.backend]));
    if (pt.policy == cloud::WfPolicy::Heft) {
      report.add(shape_name + "_makespan_s", where, workers, r.makespan_s, "s")
          .add(shape_name + "_staged_mb", where, workers, r.staged_mb, "MB")
          .add(shape_name + "_pred_ratio", where, workers,
               r.predicted_s / r.makespan_s);
      if (pt.platform == 2) {
        report.add(shape_name + "_cost_usd", where, workers, r.cost_usd, "USD");
      }
    } else {
      report.add(shape_name + "_fifo_makespan_s", where, workers, r.makespan_s, "s");
    }
  }
  std::printf("## ext7: workflow sweep, %d workers (rpn=%d), seed %llu\n", workers, rpn,
              static_cast<unsigned long long>(seed));
  std::fputs(t.str().c_str(), stdout);
  std::printf(
      "\nlesson: the storage backend moves workflow makespan as much as the platform "
      "does — the I/O-heavy Montage pays the object store's per-request latency on "
      "every one of its small intermediate files while the CPU-bound Epigenomics "
      "barely notices, a striped parallel FS absorbs the fan-in bursts a single NFS "
      "server serialises, and the HEFT plan's worth is largest where staging is "
      "expensive; its makespan prediction, built on four scalars, stays within a "
      "small factor of the simulated truth (pred_ratio) but misses the contention "
      "the simulator charges.\n");

  // Blame probe: the I/O-heavy corner of the sweep (Montage on EC2 over the
  // object store) — the configuration where storage-queue time should show
  // up on the critical path.
  core::RunRequest req;
  req.workload = "wf";
  req.wf_shape = "montage";
  req.wf_width = 12;  // the sweep's Montage width
  req.storage = "object";
  req.platform = "ec2";
  req.np = workers;
  req.rpn = rpn;
  req.seed = seed;
  bench::run_blame_probe(req, "montage.ec2.object", report);
  return 0;
}
