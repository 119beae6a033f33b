// Registry of bench targets: every paper figure/table and extension study
// registers itself here, and cirrus_bench runs each through this one entry
// point.
//
// A target is a function taking cirrus_bench's parsed command-line options
// (its own flags plus target flags such as --csv, --quick and fig4's
// positional kernel filter) and a valid::RunReport to fill; it prints its
// human-readable tables to stdout and additionally records every number it
// plots as a structured metric. Return value is the process exit code.
#pragma once

#include <string_view>
#include <vector>

#include "core/options.hpp"
#include "valid/report.hpp"

namespace cirrus::bench {

using TargetFn = int (*)(const cirrus::core::Options& opts, cirrus::valid::RunReport& report);

struct Target {
  const char* name;         ///< registry id: "fig1", "tab2", "ext5", ...
  const char* suite;        ///< "paper" (fig/tab), "ext" or "gap"
  const char* description;  ///< one line, shown by `cirrus_bench --list`
  TargetFn fn;
  /// Platform generations the target sweeps: "2012" for the paper-era
  /// studies, "2012+2020" for cross-generation suites (--list-targets).
  const char* generations = "2012";
  /// True when the target runs critical-path blame probes and fills the
  /// report's critpath block (shown by --list-targets, pinned by
  /// critpath.ref, diffed by the gap-trend CI job).
  bool emits_blame = false;
};

/// All registered targets, sorted into canonical paper order
/// (fig1..fig7, tab2, tab3, ext1..ext6; unknown names after, by name).
const std::vector<Target>& all_targets();

/// Lookup by registry id; nullptr if unknown.
const Target* find_target(std::string_view name);

/// Called by CIRRUS_BENCH_TARGET at static-init time.
int register_target(const Target& t);

}  // namespace cirrus::bench

/// Defines and registers a bench target. Usage:
///   CIRRUS_BENCH_TARGET(fig1, "paper", "OSU bandwidth vs message size") {
///     ... use opts, fill report, return 0;
///   }
#define CIRRUS_BENCH_TARGET(id, suite_, desc)                                      \
  static int id##_target_fn(const cirrus::core::Options& opts,                     \
                            cirrus::valid::RunReport& report);                     \
  [[maybe_unused]] static const int id##_registered =                              \
      cirrus::bench::register_target({#id, suite_, desc, &id##_target_fn});        \
  static int id##_target_fn([[maybe_unused]] const cirrus::core::Options& opts,    \
                            [[maybe_unused]] cirrus::valid::RunReport& report)

/// Like CIRRUS_BENCH_TARGET, marking the target as a blame emitter: it runs
/// traced probe jobs and fills report.critpath via valid::add_blame.
#define CIRRUS_BENCH_TARGET_BLAME(id, suite_, desc)                                \
  static int id##_target_fn(const cirrus::core::Options& opts,                     \
                            cirrus::valid::RunReport& report);                     \
  [[maybe_unused]] static const int id##_registered = cirrus::bench::register_target( \
      {#id, suite_, desc, &id##_target_fn, "2012", true});                         \
  static int id##_target_fn([[maybe_unused]] const cirrus::core::Options& opts,    \
                            [[maybe_unused]] cirrus::valid::RunReport& report)

/// Generation coverage and blame emission combined (the gap suite).
#define CIRRUS_BENCH_TARGET_GEN_BLAME(id, suite_, gens, desc)                      \
  static int id##_target_fn(const cirrus::core::Options& opts,                     \
                            cirrus::valid::RunReport& report);                     \
  [[maybe_unused]] static const int id##_registered = cirrus::bench::register_target( \
      {#id, suite_, desc, &id##_target_fn, gens, true});                           \
  static int id##_target_fn([[maybe_unused]] const cirrus::core::Options& opts,    \
                            [[maybe_unused]] cirrus::valid::RunReport& report)
