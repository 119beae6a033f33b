// cirrus_bench: unified runner for every paper table/figure and extension
// bench, with paper-fidelity checking and a machine-readable run manifest.
//
//   cirrus_bench --list                     # what can run
//   cirrus_bench --list-targets             # + generation coverage, sorted
//   cirrus_bench --suite paper --check      # rerun the paper, gate on refs
//   cirrus_bench --suite gap --check        # cross-generation gap trend
//   cirrus_bench --targets fig1,fig4        # just these targets
//   cirrus_bench --targets fig4 CG --csv out/
//                                           # one NPB kernel, plus CSV files
//   cirrus_bench --suite paper --check --manifest out.json
//                                           # CI: checks + JSON artifact
//   cirrus_bench --suite paper --write-ref  # regenerate reference tables
//
// Flags: --suite paper|ext|gap|all (comma-separated, default paper),
// --targets a,b,c (overrides --suite target selection), --check, --ref FILE,
// --manifest [FILE], --write-ref [FILE], --verbose (all check rows, not just
// failures). Every target receives these same parsed options, so the target
// flags --jobs N, --seed N (default 1), --csv DIR (fig1/2/4/5/6), --quick
// (ext8) and fig4's positional kernel filter reach it unchanged.
//
// Exit status: 0 on success; 1 when any target fails or any reference check
// is out of tolerance; 2 on usage errors.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "bench/registry.hpp"
#include "core/options.hpp"
#include "core/table.hpp"
#include "obs/telemetry.hpp"
#include "valid/compare.hpp"
#include "valid/manifest.hpp"
#include "valid/paths.hpp"

namespace {

using namespace cirrus;

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::string piece = s.substr(start, comma - start);
    if (!piece.empty()) out.push_back(piece);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

int usage(int rc) {
  std::fprintf(rc == 0 ? stdout : stderr,
               "usage: cirrus_bench [--list] [--list-targets]\n"
               "                    [--suite paper|ext|gap|all[,...]]\n"
               "                    [--targets a,b,c] [--check] [--ref FILE]\n"
               "                    [--manifest [FILE]] [--write-ref [FILE]]\n"
               "                    [--jobs N] [--seed N] [--verbose]\n"
               "                    [--csv DIR] [--quick] [KERNEL]\n");
  return rc;
}

}  // namespace

int main(int argc, char** argv) try {
  const core::Options opts(argc, argv);
  if (opts.has("help")) return usage(0);
  if (const auto bad = core::unknown_keys(
          opts, {"help", "list", "list-targets", "suite", "targets", "check", "ref",
                 "manifest", "write-ref", "jobs", "seed", "verbose", "csv", "quick"});
      !bad.empty()) {
    std::fprintf(stderr, "cirrus_bench: unknown option --%s\n", bad.front().c_str());
    return usage(2);
  }

  if (opts.has("list")) {
    core::Table t({"target", "suite", "description"});
    for (const auto& tgt : bench::all_targets()) {
      t.row().add(tgt.name).add(tgt.suite).add(tgt.description);
    }
    std::printf("%s", t.str().c_str());
    return 0;
  }

  if (opts.has("list-targets")) {
    // Machine-friendly variant: sorted by name (not canonical paper order)
    // so the output is diffable, with suite membership and the platform
    // generations each target covers.
    std::vector<const bench::Target*> sorted;
    for (const auto& tgt : bench::all_targets()) sorted.push_back(&tgt);
    std::sort(sorted.begin(), sorted.end(), [](const bench::Target* a, const bench::Target* b) {
      return std::string_view(a->name) < std::string_view(b->name);
    });
    core::Table t({"target", "suite", "generations", "blame", "description"});
    for (const auto* tgt : sorted) {
      t.row()
          .add(tgt->name)
          .add(tgt->suite)
          .add(tgt->generations)
          .add(tgt->emits_blame ? "yes" : "no")
          .add(tgt->description);
    }
    std::printf("%s", t.str().c_str());
    return 0;
  }

  // --- select what to run -------------------------------------------------
  const std::vector<std::string> suites = split_csv(opts.get_or("suite", "paper"));
  std::vector<std::string> registry_suites;
  for (const auto& s : suites) {
    if (s == "all") {
      registry_suites.insert(registry_suites.end(), {"paper", "ext", "gap"});
    } else if (s == "paper" || s == "ext" || s == "gap") {
      registry_suites.push_back(s);
    } else {
      std::fprintf(stderr, "cirrus_bench: unknown suite '%s'\n", s.c_str());
      return usage(2);
    }
  }

  std::vector<const bench::Target*> selected;
  if (const auto names = opts.get("targets")) {
    for (const auto& name : split_csv(*names)) {
      const auto* tgt = bench::find_target(name);
      if (tgt == nullptr) {
        std::fprintf(stderr, "cirrus_bench: unknown target '%s' (see --list)\n", name.c_str());
        return 2;
      }
      selected.push_back(tgt);
    }
  } else {
    for (const auto& tgt : bench::all_targets()) {
      if (std::find(registry_suites.begin(), registry_suites.end(), tgt.suite) !=
          registry_suites.end()) {
        selected.push_back(&tgt);
      }
    }
  }
  if (selected.empty()) {
    std::fprintf(stderr, "cirrus_bench: nothing selected\n");
    return usage(2);
  }

  // --- run ----------------------------------------------------------------
  std::vector<valid::RunReport> reports;
  int worst_rc = 0;
  for (const auto* tgt : selected) {
    std::printf("%s=== cirrus_bench: %s — %s\n", reports.empty() ? "" : "\n", tgt->name,
                tgt->description);
    std::fflush(stdout);
    valid::RunReport report;
    report.target = tgt->name;
    report.title = tgt->description;
    // Snapshot the process-wide telemetry counters around the target so the
    // manifest can attribute the deltas (top-N, deterministic) to it.
    const auto counters_before = obs::GlobalCounters::instance().snapshot();
    const auto start = std::chrono::steady_clock::now();
    int rc = 0;
    try {
      rc = tgt->fn(opts, report);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cirrus_bench: target %s threw: %s\n", tgt->name, e.what());
      rc = 1;
    }
    report.host_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count();
    report.telemetry = obs::GlobalCounters::diff_top(
        counters_before, obs::GlobalCounters::instance().snapshot(), /*top_n=*/12);
    if (rc != 0) {
      std::fprintf(stderr, "cirrus_bench: target %s exited with %d\n", tgt->name, rc);
      worst_rc = std::max(worst_rc, rc);
    }
    reports.push_back(std::move(report));
  }

  // --- summary ------------------------------------------------------------
  if (!reports.empty()) {
    core::Table t({"target", "metrics", "events", "host (ms)"});
    double total_ms = 0;
    std::uint64_t total_events = 0;
    for (const auto& r : reports) {
      t.row().add(r.target).add(static_cast<int>(r.metrics.size()))
          .add(static_cast<double>(r.events), 0).add(r.host_ms, 0);
      total_ms += r.host_ms;
      total_events += r.events;
    }
    std::printf("\n=== cirrus_bench: %zu target(s), %.0f ms host, %.3g simulated events\n%s",
                reports.size(), total_ms, static_cast<double>(total_events), t.str().c_str());
  }

  // --- reference handling -------------------------------------------------
  if (opts.has("write-ref")) {
    std::string path = opts.get_or("write-ref", "");
    if (path.empty()) path = valid::reference_dir() + "/paper.ref";
    valid::write_text_file(path, valid::write_reference(reports));
    std::size_t pinned = 0;
    for (const auto& r : reports) pinned += r.metrics.size();
    std::printf("\nwrote %zu reference metrics to %s\n", pinned, path.c_str());
    // Blame blocks get their own reference file (pins only; the hand-curated
    // qualitative expects live in the committed critpath.ref and are merged
    // back by hand after regeneration).
    std::size_t blamed = 0;
    for (const auto& r : reports) blamed += r.critpath.size();
    if (blamed > 0) {
      const std::string cp_path = valid::reference_dir() + "/critpath.ref.new";
      valid::write_text_file(cp_path, valid::write_critpath_reference(reports));
      std::printf("wrote %zu critpath pins to %s (merge into critpath.ref)\n", blamed,
                  cp_path.c_str());
    }
  }

  std::vector<valid::CheckResult> checks;
  if (opts.has("check")) {
    const auto ref_path = opts.get("ref");
    const valid::ReferenceSet ref = ref_path && !ref_path->empty()
                                        ? valid::ReferenceSet::load(*ref_path)
                                        : valid::ReferenceSet::load_default();
    checks = valid::check(reports, ref);
    const int failed = valid::failures(checks);
    std::printf("\n=== cirrus_bench: reference check — %zu entries, %d failed\n%s",
                checks.size(), failed, valid::render_checks(checks, !opts.has("verbose")).c_str());
    if (failed > 0) worst_rc = std::max(worst_rc, 1);
  }

  // --- manifest -----------------------------------------------------------
  if (opts.has("manifest")) {
    std::string path = opts.get_or("manifest", "");
    if (path.empty()) path = "cirrus_manifest.json";
    valid::ManifestContext ctx;
    std::string suite_label;
    for (const auto& s : suites) suite_label += (suite_label.empty() ? "" : "+") + s;
    ctx.suite = suite_label;
    ctx.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
    ctx.jobs = opts.get_int("jobs", 0);
    valid::write_text_file(path, valid::manifest_json(ctx, reports, checks));
    std::printf("\nwrote run manifest to %s\n", path.c_str());
  }

  return worst_rc;
} catch (const std::exception& e) {
  std::fprintf(stderr, "cirrus_bench: error: %s\n", e.what());
  return 1;
}
