// Reproduces paper Table II: IPM-reported percentage of walltime spent in
// communication (%comm) for the CG, FT and IS class B benchmarks at
// np = 2..64 on DCC, EC2 and Vayu.
//
// Expected shape: %comm rises with np everywhere; DCC worst (GigE + jitter),
// Vayu best; DCC jumps sharply at 16 ranks (two nodes); IS highest overall
// (~98/85/68% at np=64 in the paper).
//
// Every point is a RunRequest run by bench::sweep on `--jobs` workers; the
// table is identical for every jobs value.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/job.hpp"
#include "bench/registry.hpp"
#include "core/table.hpp"

CIRRUS_BENCH_TARGET(tab2, "paper",
                    "IPM %comm for NPB CG/FT/IS class B at np=2..64 per platform") {
  using namespace cirrus;
  const int np_list[] = {2, 4, 8, 16, 32, 64};
  const char* benches[] = {"CG", "FT", "IS"};
  const char* platforms[] = {"dcc", "ec2", "vayu"};

  std::vector<core::RunRequest> reqs;
  for (const int np : np_list) {
    for (const char* bench : benches) {
      for (const char* platform : platforms) {
        reqs.push_back(
            {.workload = "npb", .bench = bench, .cls = "B", .platform = platform, .np = np});
      }
    }
  }
  const auto comm_pct = bench::sweep(reqs, opts, report, [](const serve::RunOutcome& o) {
    return o.result.ipm.comm_pct();
  });

  core::Table t({"np", "CG dcc", "CG ec2", "CG vayu", "FT dcc", "FT ec2", "FT vayu", "IS dcc",
                 "IS ec2", "IS vayu"});
  std::size_t idx = 0;
  for (const int np : np_list) {
    t.row().add(np);
    for (const char* bench : benches) {
      for (const char* platform : platforms) {
        report.add(std::string("comm_pct_") + bench, platform, np, comm_pct[idx], "%");
        t.add(comm_pct[idx++], 1);
      }
    }
  }
  std::printf("## tab2: IPM %%comm for selected NPB class B benchmarks\n%s", t.str().c_str());
  std::printf("\npaper (np=64): CG 90.3/58.0/21.7  FT 84.4/55.3/20.8  IS 98.1/84.9/68.2 "
              "(dcc/ec2/vayu)\n");
  return 0;
}
