// Reproduces paper Table III: IPM statistics for MetUM at 32 cores on Vayu,
// DCC, EC2 (2 nodes, HyperThreaded) and EC2-4 (4 nodes).
//
//   time(s): 303 / 624 / 770 / 380          rcomp: 1.0 / 1.37 / 2.39 / 1.17
//   rcomm:   1.0 / 6.71 / 3.53 / ~1         %comm: 13 / 42 / 18 / 18
//   %imbal:  13 / 4 / 18 / 19               I/O(s): 4.5 / 37.8 / 9.1 / 7.6
//
// The four configurations are RunRequests run by bench::sweep.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/job.hpp"
#include "bench/registry.hpp"
#include "core/table.hpp"

CIRRUS_BENCH_TARGET(tab3, "paper",
                    "IPM statistics for MetUM at 32 cores (Vayu, DCC, EC2, EC2-4)") {
  using namespace cirrus;
  const char* names[] = {"Vayu", "DCC", "EC2", "EC2-4"};
  const std::vector<core::RunRequest> reqs = {
      {.workload = "metum", .platform = "vayu", .np = 32},
      {.workload = "metum", .platform = "dcc", .np = 32},
      {.workload = "metum", .platform = "ec2", .np = 32, .rpn = 16},  // 2 nodes, HyperThreaded
      {.workload = "metum", .platform = "ec2", .np = 32, .rpn = 8},
  };
  struct Row {
    double time_s = 0, comp_s = 0, comm_s = 0, comm_pct = 0, imbal_pct = 0, io_s = 0;
  };
  const auto rows = bench::sweep(reqs, opts, report, [](const serve::RunOutcome& o) {
    const auto agg = o.result.ipm.aggregate();
    return Row{o.result.elapsed_seconds, agg.comp_s,        agg.comm_s,
               agg.comm_pct,             agg.imbalance_pct, agg.io_max_s};
  });
  const double vayu_comp = rows[0].comp_s;
  const double vayu_comm = rows[0].comm_s;

  core::Table t({"metric", "Vayu", "DCC", "EC2", "EC2-4", "paper (V/D/E/E4)"});
  t.row().add("time(s)");
  for (const auto& r : rows) t.add(r.time_s, 0);
  t.add("303/624/770/380");
  t.row().add("rcomp");
  for (const auto& r : rows) t.add(r.comp_s / vayu_comp, 2);
  t.add("1.0/1.37/2.39/1.17");
  t.row().add("rcomm");
  for (const auto& r : rows) t.add(r.comm_s / vayu_comm, 2);
  t.add("1.0/6.71/3.53/~1");
  t.row().add("%comm");
  for (const auto& r : rows) t.add(r.comm_pct, 0);
  t.add("13/42/18/18");
  t.row().add("%imbal");
  for (const auto& r : rows) t.add(r.imbal_pct, 0);
  t.add("13/4/18/19");
  t.row().add("I/O(s)");
  for (const auto& r : rows) t.add(r.io_s, 1);
  t.add("4.5/37.8/9.1/7.6");

  std::printf("## tab3: IPM statistics for UM at 32 cores\n%s", t.str().c_str());

  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const std::string p = valid::slug(names[i]);
    report.add("time_s", p, 32, r.time_s, "s")
        .add("rcomp", p, 32, r.comp_s / vayu_comp)
        .add("rcomm", p, 32, r.comm_s / vayu_comm)
        .add("comm_pct", p, 32, r.comm_pct, "%")
        .add("imbal_pct", p, 32, r.imbal_pct, "%")
        .add("io_s", p, 32, r.io_s, "s");
  }
  return 0;
}
