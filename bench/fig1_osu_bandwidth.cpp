// Reproduces paper Figure 1: OSU MPI bandwidth vs message size on the DCC
// (GigE), EC2 (10GigE) and Vayu (QDR IB) platforms.
//
// Expected shape (paper §V-A): Vayu more than an order of magnitude above
// the others at every size; EC2 peaks near ~560 MB/s around 256 KB; DCC
// peaks near ~190 MB/s.
#include <cstdio>

#include "bench/registry.hpp"
#include "core/options.hpp"
#include "core/report_bridge.hpp"
#include "core/table.hpp"
#include "osu/osu.hpp"
#include "platform/platform.hpp"

CIRRUS_BENCH_TARGET(fig1, "paper",
                    "OSU MPI bandwidth vs message size on DCC, EC2 and Vayu") {
  using namespace cirrus;
  core::Figure fig;
  fig.id = "fig1";
  fig.title = "OSU MPI bandwidth tests for DCC, EC2 and Vayu clusters";
  fig.xlabel = "bytes";
  fig.ylabel = "MB/s";

  const auto sizes = osu::default_sizes();
  for (const auto& platform : plat::study_platforms()) {
    core::Series s;
    s.name = platform.name + " (" + platform.interconnect + ")";
    for (const auto& pt : osu::bandwidth(platform, sizes)) {
      s.points.emplace_back(static_cast<double>(pt.bytes), pt.mb_per_s);
      report.events += pt.events;
    }
    fig.series.push_back(std::move(s));
  }
  std::fputs(fig.table_str().c_str(), stdout);
  if (const auto dir = opts.get("csv")) {
    std::printf("wrote %s\n", cirrus::core::write_figure_csv(fig, *dir).c_str());
  }

  // Headline numbers the paper quotes.
  double dcc_peak = 0, ec2_peak = 0, vayu_peak = 0;
  for (const auto& s : fig.series) {
    for (const auto& [x, y] : s.points) {
      if (s.name.rfind("dcc", 0) == 0) dcc_peak = std::max(dcc_peak, y);
      if (s.name.rfind("ec2", 0) == 0) ec2_peak = std::max(ec2_peak, y);
      if (s.name.rfind("vayu", 0) == 0) vayu_peak = std::max(vayu_peak, y);
    }
  }
  std::printf("\npeaks: dcc %.0f MB/s (paper ~190), ec2 %.0f MB/s (paper ~560), "
              "vayu %.0f MB/s (paper: >10x ec2)\n",
              dcc_peak, ec2_peak, vayu_peak);

  core::figure_to_report(fig, "bw", "MB/s", report);
  report.add("peak_bw", "dcc", 2, dcc_peak, "MB/s")
      .add("peak_bw", "ec2", 2, ec2_peak, "MB/s")
      .add("peak_bw", "vayu", 2, vayu_peak, "MB/s");
  return 0;
}
