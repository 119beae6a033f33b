// How a bench target runs a job.
//
// Every job a target simulates is named by a core::RunRequest and run by
// serve::execute(), the one place that turns a request into an
// mpi::JobConfig — the same path cirrus_run, cirrus_serve and perfbench
// take. A sweep is a list of requests; a blame probe is one more request,
// traced.
//
// Targets that stay on the lower layers, because no RunRequest can name what
// they run: ext2 is analytic (no simulation), ext3 mutates plat::Platform
// fields (the model ablation), ext4 and ext5 drive their own SpotMarket and
// FaultSchedule, and fig1/fig2 are OSU message-size tables, not jobs.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "core/driver.hpp"
#include "core/options.hpp"
#include "core/request.hpp"
#include "obs/critpath.hpp"
#include "serve/service.hpp"
#include "valid/report.hpp"

namespace cirrus::bench {

/// Runs every request through serve::execute() on `--jobs` workers and
/// returns project(outcome) for each, in request order — byte-identical for
/// any worker count. Each job's simulator events are credited to
/// `report.events`. `project` runs on the worker threads, so it must only
/// read its outcome. A request that fails validate() throws
/// std::invalid_argument.
template <typename Project>
auto sweep(const std::vector<core::RunRequest>& reqs, const core::Options& opts,
           valid::RunReport& report, Project project) {
  using R = std::decay_t<std::invoke_result_t<Project&, const serve::RunOutcome&>>;
  std::vector<std::uint64_t> events(reqs.size());
  auto out = core::run_sweep<R>(
      reqs.size(),
      [&](std::size_t i) {
        const serve::RunOutcome outcome = serve::execute(reqs[i]);
        events[i] = outcome.result.events_processed;
        return project(outcome);
      },
      opts.get_int("jobs", 0));
  for (const std::uint64_t e : events) report.events += e;
  return out;
}

/// A blame probe: one extra traced run of a configuration a target already
/// sweeps (trace capture is off for the sweep itself — it would slow every
/// point). Walks the trace with obs::critpath and appends the blame block to
/// `report.critpath` under `label` (e.g. "cg.dcc") at x = req.np, where the
/// manifest, the critpath.ref pins and the gap-trend drift gate pick it up.
/// The probe's events are not credited to the report. Returns the blame for
/// callers that also print it.
obs::critpath::Blame run_blame_probe(const core::RunRequest& req, const std::string& label,
                                     valid::RunReport& report);

}  // namespace cirrus::bench
