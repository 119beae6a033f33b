// Reproduces paper Figure 7: per-rank computation / communication time
// breakdown (and its load balance) of MetUM's ATM_STEP section at 32 cores,
// on Vayu and DCC.
//
// Expected shape: on DCC the communication share is far larger and is
// primarily *system* time (E1000 softirq processing); the tropical ranks
// 8..23 show more computation (convection), and NUMA masking adds irregular
// per-rank compute imbalance on DCC. On Vayu the profile is comparatively
// flat with a small user-time communication share.
//
// Both platforms' runs are RunRequests run by bench::sweep.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/job.hpp"
#include "bench/registry.hpp"
#include "core/table.hpp"

namespace {

void breakdown(const char* pname, const std::vector<cirrus::ipm::RankBreakdown>& rows,
               cirrus::valid::RunReport& report) {
  std::printf("\n### %s: ATM_STEP per-rank breakdown at 32 cores\n", pname);
  cirrus::core::Table t({"rank", "comp (s)", "comm user (s)", "comm sys (s)", "bar"});
  double max_total = 0;
  for (const auto& row : rows) {
    max_total = std::max(max_total, row.comp_s + row.comm_user_s + row.comm_sys_s);
  }
  for (const auto& row : rows) {
    // ASCII stacked bar: '#' compute, 'u' user comm, 's' system comm.
    const double scale = 46.0 / max_total;
    std::string bar(static_cast<std::size_t>(row.comp_s * scale), '#');
    bar += std::string(static_cast<std::size_t>(row.comm_user_s * scale), 'u');
    bar += std::string(static_cast<std::size_t>(row.comm_sys_s * scale), 's');
    t.row().add(row.rank).add(row.comp_s, 1).add(row.comm_user_s, 1).add(row.comm_sys_s, 1).add(bar);
  }
  std::fputs(t.str().c_str(), stdout);

  double comp = 0, user = 0, sys = 0;
  for (const auto& row : rows) {
    comp += row.comp_s;
    user += row.comm_user_s;
    sys += row.comm_sys_s;
  }
  std::printf("totals: comp %.0f s, comm user %.0f s, comm system %.0f s "
              "(system/user = %.1f)\n",
              comp, user, sys, user > 0 ? sys / user : 0.0);
  report.add("atm_comp_s", pname, 32, comp, "s")
      .add("atm_comm_user_s", pname, 32, user, "s")
      .add("atm_comm_sys_s", pname, 32, sys, "s")
      .add("atm_sys_user_ratio", pname, 32, user > 0 ? sys / user : 0.0);
}

}  // namespace

CIRRUS_BENCH_TARGET(fig7, "paper",
                    "MetUM ATM_STEP per-rank comp/comm breakdown at 32 cores") {
  using namespace cirrus;
  const char* platforms[] = {"vayu", "dcc"};
  std::vector<core::RunRequest> reqs;
  for (const char* p : platforms) reqs.push_back({.workload = "metum", .platform = p, .np = 32});
  const auto rows = bench::sweep(reqs, opts, report, [](const serve::RunOutcome& o) {
    return o.result.ipm.rank_breakdown("ATM_STEP");
  });
  for (std::size_t i = 0; i < rows.size(); ++i) breakdown(platforms[i], rows[i], report);
  return 0;
}
