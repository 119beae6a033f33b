// Reproduces paper Figure 2: OSU MPI latency vs message size on DCC, EC2 and
// Vayu.
//
// Expected shape (paper §V-A): Vayu ~2 us small-message latency, EC2 ~55 us
// and stable, DCC fluctuating between ~60 us and several hundred us from 1 B
// to 512 KB (VMware vSwitch scheduling).
#include <algorithm>
#include <cstdio>

#include "bench/registry.hpp"
#include "core/options.hpp"
#include "core/report_bridge.hpp"
#include "core/table.hpp"
#include "osu/osu.hpp"
#include "platform/platform.hpp"

CIRRUS_BENCH_TARGET(fig2, "paper",
                    "OSU MPI latency vs message size on DCC, EC2 and Vayu") {
  using namespace cirrus;
  core::Figure fig;
  fig.id = "fig2";
  fig.title = "OSU MPI latency tests for DCC, EC2 and Vayu clusters";
  fig.xlabel = "bytes";
  fig.ylabel = "microseconds";

  const auto sizes = osu::default_sizes();
  for (const auto& platform : plat::study_platforms()) {
    core::Series s;
    s.name = platform.name + " (" + platform.interconnect + ")";
    for (const auto& pt : osu::latency(platform, sizes)) {
      s.points.emplace_back(static_cast<double>(pt.bytes), pt.usec);
      report.events += pt.events;
    }
    fig.series.push_back(std::move(s));
  }
  std::fputs(fig.table_str().c_str(), stdout);
  if (const auto dir = opts.get("csv")) {
    std::printf("wrote %s\n", cirrus::core::write_figure_csv(fig, *dir).c_str());
  }

  // Quantify DCC's fluctuation (coefficient of variation of small-message
  // latency across sizes, where latency should otherwise be flat).
  for (const auto& s : fig.series) {
    double mn = 1e300, mx = 0;
    for (const auto& [x, y] : s.points) {
      if (x <= 4096) {
        mn = std::min(mn, y);
        mx = std::max(mx, y);
      }
    }
    std::printf("%s small-message latency range: %.1f .. %.1f us\n", s.name.c_str(), mn, mx);
    const std::string platform = valid::slug(s.name.substr(0, s.name.find(' ')));
    report.add("small_lat_min", platform, 2, mn, "us").add("small_lat_max", platform, 2, mx, "us");
  }
  core::figure_to_report(fig, "lat", "us", report);
  return 0;
}
