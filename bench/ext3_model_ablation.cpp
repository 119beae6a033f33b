// Ablation: which platform-model features are load-bearing for reproducing
// the paper's results?
//
// Each row disables one model feature and reports the resulting NPB class B
// behaviour at the paper's most diagnostic points:
//   * CG DCC speedup at np=8 (the NUMA-masking drop, Fig 4),
//   * FT DCC speedup at np=16 (the GigE/half-duplex knee, Fig 4),
//   * EP EC2 speedup at np=16 (the HyperThreading knee, Fig 4),
//   * IS Vayu %comm at np=64 (fabric congestion, Table II).
#include <cstdio>
#include <functional>

#include "bench/registry.hpp"
#include "core/table.hpp"
#include "npb/npb.hpp"

namespace {

using cirrus::plat::Platform;

/// One model-mode class B run; its event count is added to `report`.
cirrus::mpi::JobResult run(const char* bench, const Platform& p, int np,
                           cirrus::valid::RunReport& report) {
  auto r = cirrus::npb::run_benchmark(bench, cirrus::npb::Class::B, p, np, false);
  report.events += r.events_processed;
  return r;
}

double speedup(const char* bench, const Platform& p, int np, cirrus::valid::RunReport& report) {
  const double t1 = run(bench, p, 1, report).elapsed_seconds;
  return t1 / run(bench, p, np, report).elapsed_seconds;
}

double comm_pct(const char* bench, const Platform& p, int np, cirrus::valid::RunReport& report) {
  return run(bench, p, np, report).ipm.comm_pct();
}

}  // namespace

CIRRUS_BENCH_TARGET(ext3, "ext",
                    "Platform-model feature ablation at the paper's diagnostic points") {
  using namespace cirrus;

  struct Variant {
    const char* name;
    std::function<void(plat::Platform&)> tweak;
  };
  const Variant variants[] = {
      {"full model", [](plat::Platform&) {}},
      {"no NUMA masking", [](plat::Platform& p) { p.compute.numa_masked = false; }},
      {"no HT penalty", [](plat::Platform& p) { p.compute.smt_speedup = 2.0; }},
      {"full-duplex NICs", [](plat::Platform& p) { p.nic.half_duplex = false; }},
      {"no incast penalty", [](plat::Platform& p) { p.nic.incast_penalty = 1.0; }},
      {"no jitter", [](plat::Platform& p) {
         p.nic.jitter_prob = 0;
         p.compute.jitter_sigma = 0;
       }},
      {"no mem contention", [](plat::Platform& p) { p.compute.mem_contention = 0; }},
  };

  core::Table t({"variant", "CG dcc S(8)", "FT dcc S(16)", "EP ec2 S(16)", "IS vayu %comm(64)"});
  for (const auto& v : variants) {
    auto dcc = plat::dcc();
    auto ec2 = plat::ec2();
    auto vayu = plat::vayu();
    v.tweak(dcc);
    v.tweak(ec2);
    v.tweak(vayu);
    const double cg8 = speedup("CG", dcc, 8, report);
    const double ft16 = speedup("FT", dcc, 16, report);
    const double ep16 = speedup("EP", ec2, 16, report);
    const double is64 = comm_pct("IS", vayu, 64, report);
    t.row().add(v.name).add(cg8, 2).add(ft16, 2).add(ep16, 2).add(is64, 1);
    const std::string key = valid::slug(v.name);
    report.add("cg_dcc_s", key, 8, cg8)
        .add("ft_dcc_s", key, 16, ft16)
        .add("ep_ec2_s", key, 16, ep16)
        .add("is_vayu_comm_pct", key, 64, is64, "%");
  }
  std::printf("## ext3: platform-model feature ablation\n%s", t.str().c_str());
  std::printf("\npaper-shape expectations with the full model: CG dcc S(8) well below 8 "
              "(NUMA), FT dcc S(16) ~ S(8) (GigE knee), EP ec2 S(16) ~ 8 (HT), "
              "IS vayu %%comm high and growing.\n");
  return 0;
}
