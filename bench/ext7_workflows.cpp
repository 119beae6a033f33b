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
// Every point is a RunRequest run by bench::sweep, which plans, runs and
// (on EC2) prices the workflow exactly as cirrus_run and cirrus_serve do;
// results are stored in index order, so the output is byte-identical for any
// --jobs value.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/job.hpp"
#include "bench/registry.hpp"
#include "core/options.hpp"
#include "core/table.hpp"

CIRRUS_BENCH_TARGET_BLAME(
    ext7, "ext", "Scientific-workflow DAG sweep: shape x platform x storage x scheduler") {
  using namespace cirrus;
  const std::uint64_t seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));

  const int workers = 8;
  const int rpn = 8;  // workers + master span two nodes: locality is real
  struct ShapeSpec {
    const char* shape;
    int width;
  };
  const ShapeSpec shapes[] = {{"montage", 12}, {"epigenomics", 8}, {"broadband", 8}};
  const char* platforms[] = {"vayu", "dcc", "ec2"};
  const char* backends[] = {"nfs", "lustre", "object"};

  const auto request = [&](const ShapeSpec& s, const char* platform, const char* backend,
                           const char* sched) {
    return core::RunRequest{.workload = "wf",
                            .platform = platform,
                            .np = workers,
                            .rpn = rpn,
                            .seed = seed,
                            .storage = backend,
                            .wf_shape = s.shape,
                            .wf_width = s.width,
                            .wf_sched = sched};
  };
  std::vector<core::RunRequest> reqs;
  for (const auto& s : shapes) {
    for (const char* p : platforms) {
      for (const char* b : backends) reqs.push_back(request(s, p, b, "heft"));
    }
  }
  // FIFO contrast where staging is dearest: the object store on EC2.
  for (const auto& s : shapes) reqs.push_back(request(s, "ec2", "object", "fifo"));

  struct R {
    double makespan_s = 0, predicted_s = 0, staged_mb = 0, scratch_mb = 0, cost_usd = 0;
    std::string storage_name;
  };
  const auto results = bench::sweep(reqs, opts, report, [](const serve::RunOutcome& o) {
    const auto& v = o.result.values;
    const auto cost = v.find("wf_cost_usd");  // priced on EC2 only
    return R{v.at("wf_makespan_s"), v.at("wf_predicted_s"), v.at("wf_staged_mb"),
             v.at("wf_scratch_mb"), cost == v.end() ? 0.0 : cost->second,
             o.result.storage_name};
  });

  core::Table t({"workflow", "platform", "storage", "sched", "T (s)", "pred (s)",
                 "staged MB", "scratch MB", "$"});
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const core::RunRequest& req = reqs[i];
    const R& r = results[i];
    const std::string& shape_name = req.wf_shape;
    t.row()
        .add(shape_name)
        .add(req.platform)
        .add(r.storage_name)
        .add(req.wf_sched)
        .add(r.makespan_s, 3)
        .add(r.predicted_s, 3)
        .add(r.staged_mb, 1)
        .add(r.scratch_mb, 1)
        .add(r.cost_usd, 3);
    const std::string where = valid::slug(req.platform + "_" + req.storage);
    if (req.wf_sched == "heft") {
      report.add(shape_name + "_makespan_s", where, workers, r.makespan_s, "s")
          .add(shape_name + "_staged_mb", where, workers, r.staged_mb, "MB")
          .add(shape_name + "_pred_ratio", where, workers,
               r.predicted_s / r.makespan_s);
      if (req.platform == "ec2") {
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
  bench::run_blame_probe(request(shapes[0], "ec2", "object", "heft"), "montage.ec2.object",
                         report);
  return 0;
}
