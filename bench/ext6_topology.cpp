// Extension: switch-fabric topology sweep (topology x oversubscription x
// placement x NPB kernel).
//
// The paper's clusters differ as much in their fabrics as in their NICs:
// Vayu's fat-tree is oversubscribed above the leaf switches, the DCC cloud
// funnels every inter-node byte through one vSwitch backplane, and EC2
// without a placement group scatters instances across pods behind a
// congested core. This sweep runs communication-heavy (FT, IS) and
// nearest-neighbour (LU, SP) NPB kernels at np=64 over 8 nodes on each
// fabric shape and reports the slowdown relative to the ideal crossbar,
// plus where the bytes queued (per-link utilisation counters).
//
// Every (kernel, fabric) point is a RunRequest run by bench::sweep; results
// are stored in index order, so the output is byte-identical for any --jobs
// value.
#include <cstdint>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "bench/job.hpp"
#include "bench/registry.hpp"
#include "core/options.hpp"
#include "core/table.hpp"

CIRRUS_BENCH_TARGET(ext6, "ext",
                    "Switch-fabric topology sweep: topology x oversub x placement x kernel") {
  using namespace cirrus;
  const std::uint64_t seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));

  const int np = 64;
  const int rpn = 8;  // 8 nodes: two leaves of four on the fat-tree
  const char* kernels[] = {"FT", "IS", "LU", "SP"};
  // (topology, oversubscription, placement); leaf radix 4 throughout. The
  // crossbar baseline comes first in every kernel block.
  const std::tuple<const char*, double, const char*> fabrics[] = {
      {"crossbar", 1.0, "contig"},
      {"fattree", 1.0, "contig"},
      {"fattree", 2.0, "contig"},
      {"fattree", 4.0, "contig"},
      {"fattree", 2.0, "scatter"},  // does spreading ranks across leaves help or hurt?
      {"vswitch", 2.0, "contig"},
      {"pgroups", 2.0, "contig"},
      {"pgroups", 2.0, "scatter"},
  };

  std::vector<core::RunRequest> reqs;
  for (const char* kernel : kernels) {
    for (const auto& [topology, oversub, placement] : fabrics) {
      reqs.push_back({.workload = "npb",
                      .bench = kernel,
                      .cls = "B",
                      .platform = "vayu",
                      .np = np,
                      .rpn = rpn,
                      .seed = seed,
                      .topo = topology,
                      .oversub = oversub,
                      .placement = placement});
    }
  }

  struct R {
    double elapsed_s = 0, comm_pct = 0, queued_s = 0;
    std::string fabric;    // topo::label of the fabric the job ran over
    std::string hot_link;  // most-queued fabric link, "-" on the crossbar
  };
  const auto results = bench::sweep(reqs, opts, report, [](const serve::RunOutcome& o) {
    const auto& run = o.result;
    R r;
    r.elapsed_s = run.elapsed_seconds;
    r.comm_pct = run.ipm.comm_pct();
    r.fabric = topo::label(run.topology->spec());
    r.hot_link = "-";
    sim::SimTime worst = 0;
    for (std::size_t li = 0; li < run.link_stats.size(); ++li) {
      const auto& s = run.link_stats[li];
      r.queued_s += sim::to_seconds(s.queued);
      if (s.queued > worst) {
        worst = s.queued;
        r.hot_link = run.topology->links()[li].name;
      }
    }
    return r;
  });

  core::Table t({"kernel", "fabric", "placement", "T (s)", "vs xbar", "%comm",
                 "queued (s)", "hot link"});
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const core::RunRequest& req = reqs[i];
    const R& r = results[i];
    const double base = results[i - i % std::size(fabrics)].elapsed_s;
    t.row()
        .add(req.bench)
        .add(r.fabric)
        .add(req.placement)
        .add(r.elapsed_s, 3)
        .add(r.elapsed_s / base, 3)
        .add(r.comm_pct, 1)
        .add(r.queued_s, 3)
        .add(r.hot_link);
    const std::string fab = valid::slug(r.fabric + "_" + req.placement);
    const std::string kern = valid::slug(req.bench);
    report.add(kern + "_vs_xbar", fab, np, r.elapsed_s / base)
        .add(kern + "_comm_pct", fab, np, r.comm_pct, "%")
        .add(kern + "_queued_s", fab, np, r.queued_s, "s");
  }
  std::printf("## ext6: topology sweep, NPB class B np=%d (rpn=%d) on vayu, seed %llu\n", np,
              rpn, static_cast<unsigned long long>(seed));
  std::fputs(t.str().c_str(), stdout);
  std::printf(
      "\nlesson: all-to-all kernels (FT, IS) pay for every removed uplink — their "
      "traffic crosses the leaves regardless of placement — while nearest-neighbour "
      "kernels (LU, SP) keep most bytes inside a leaf and barely notice 4:1 "
      "oversubscription; one shared vSwitch backplane is the worst fabric at this "
      "scale, and scattering ranks off their placement group moves the bottleneck "
      "from the NICs to the pod uplinks.\n");
  return 0;
}
