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
// Everything is seeded and results are stored in index order: output is
// byte-identical for any --jobs value.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/registry.hpp"
#include "core/driver.hpp"
#include "core/options.hpp"
#include "core/table.hpp"
#include "npb/npb.hpp"

CIRRUS_BENCH_TARGET(ext6, "ext",
                    "Switch-fabric topology sweep: topology x oversub x placement x kernel") {
  using namespace cirrus;
  const int jobs = opts.get_int("jobs", 0);
  const std::uint64_t seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));

  const int np = 64;
  const int rpn = 8;  // 8 nodes: two leaves of four on the fat-tree
  const auto cls = npb::Class::B;
  const char* kernels[] = {"FT", "IS", "LU", "SP"};

  struct Fabric {
    topo::TopoSpec spec;
    topo::Placement placement;
  };
  std::vector<Fabric> fabrics;
  {
    Fabric f;
    f.placement = topo::Placement::Contiguous;
    f.spec.kind = topo::Kind::Crossbar;
    fabrics.push_back(f);  // baseline
    f.spec.kind = topo::Kind::FatTree;
    f.spec.leaf_radix = 4;
    for (const double os : {1.0, 2.0, 4.0}) {
      f.spec.oversubscription = os;
      fabrics.push_back(f);
    }
    f.spec.oversubscription = 2.0;
    f.placement = topo::Placement::Scattered;
    fabrics.push_back(f);  // does spreading ranks across leaves help or hurt?
    f.placement = topo::Placement::Contiguous;
    f.spec.kind = topo::Kind::VSwitch;
    fabrics.push_back(f);
    f.spec.kind = topo::Kind::PlacementGroups;
    fabrics.push_back(f);
    f.placement = topo::Placement::Scattered;
    fabrics.push_back(f);
  }

  struct Point {
    std::size_t kernel, fabric;
  };
  std::vector<Point> points;
  for (std::size_t k = 0; k < std::size(kernels); ++k) {
    for (std::size_t f = 0; f < fabrics.size(); ++f) points.push_back({k, f});
  }

  struct R {
    double elapsed_s = 0, comm_pct = 0, queued_s = 0;
    std::uint64_t events = 0;
    std::string hot_link;  // most-queued fabric link, "-" on the crossbar
  };
  const auto results = core::run_sweep_labeled<R>(
      points.size(),
      [&](std::size_t i) {
        const Point& p = points[i];
        const Fabric& fab = fabrics[p.fabric];
        const auto& info = npb::benchmark(kernels[p.kernel]);
        auto cfg = npb::make_job(info, cls, plat::vayu(), np, /*execute=*/false, seed);
        cfg.max_ranks_per_node = rpn;
        cfg.topology = fab.spec;
        cfg.placement = fab.placement;
        const auto run =
            mpi::run_job(cfg, [&info, cls](mpi::RankEnv& env) { info.fn(env, cls); });

        R r;
        r.elapsed_s = run.elapsed_seconds;
        r.comm_pct = run.ipm.comm_pct();
        r.events = run.events_processed;
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
        const std::string label = std::string(kernels[p.kernel]) + " / " +
                                  topo::label(fab.spec) + " / " +
                                  topo::to_string(fab.placement);
        return core::Labeled<R>{label, r};
      },
      jobs);
  for (const auto& r : results) report.events += r.value.events;

  // Per-kernel crossbar baselines are the first fabric of each kernel block.
  core::Table t({"kernel", "fabric", "placement", "T (s)", "vs xbar", "%comm",
                 "queued (s)", "hot link"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    const R& r = results[i].value;
    const double base = results[p.kernel * fabrics.size()].value.elapsed_s;
    t.row()
        .add(kernels[p.kernel])
        .add(topo::label(fabrics[p.fabric].spec))
        .add(topo::to_string(fabrics[p.fabric].placement))
        .add(r.elapsed_s, 3)
        .add(r.elapsed_s / base, 3)
        .add(r.comm_pct, 1)
        .add(r.queued_s, 3)
        .add(r.hot_link);
    const std::string fab = valid::slug(std::string(topo::label(fabrics[p.fabric].spec)) + "_" +
                                        topo::to_string(fabrics[p.fabric].placement));
    const std::string kern = valid::slug(kernels[p.kernel]);
    report.add(kern + "_vs_xbar", fab, np, r.elapsed_s / base)
        .add(kern + "_comm_pct", fab, np, r.comm_pct, "%")
        .add(kern + "_queued_s", fab, np, r.queued_s, "s");
  }
  std::printf("## ext6: topology sweep, NPB class %c np=%d (rpn=%d) on vayu, seed %llu\n",
              npb::to_char(cls), np, rpn, static_cast<unsigned long long>(seed));
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
