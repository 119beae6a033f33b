// JSON run-manifest writer: one machine-readable record per cirrus_bench
// invocation — git SHA, seed, platform specs, every reported metric, every
// reference check's pass/fail, host wall-clock and simulated-event
// throughput. CI uploads the manifest as an artifact so fidelity and
// performance can be tracked across commits. Simulator perf is measured by
// perfbench/ and tracked in BENCH_simulator.json, not here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "valid/compare.hpp"
#include "valid/report.hpp"

namespace cirrus::valid {

struct ManifestContext {
  std::string suite;            ///< e.g. "paper" or "paper+gap"
  std::string git_sha;          ///< "" = build_git_sha()
  std::uint64_t seed = 1;
  int jobs = 0;                 ///< sweep-driver worker count (0 = default)
  std::string generator = "cirrus_bench";
  /// Include the study-platform spec table (off only for fixture tests that
  /// need a platform-independent golden).
  bool include_platforms = true;
  /// Include the "host" section (wall-clock timings, events/sec). These are
  /// the only non-deterministic fields in the manifest; everything else is a
  /// pure function of the inputs. Golden fixtures turn this off so the
  /// round-trip test is byte-stable across machines and runs.
  bool include_nondeterministic = true;
};

/// The git SHA the binary was configured from: the CIRRUS_GIT_SHA environment
/// variable if set (CI passes the exact commit), else the configure-time SHA,
/// else "unknown".
std::string build_git_sha();

/// Serialises the manifest. Deterministic for fixed inputs: doubles use the
/// shortest representation that round-trips, keys are emitted in a fixed
/// order.
std::string manifest_json(const ManifestContext& ctx, const std::vector<RunReport>& reports,
                          const std::vector<CheckResult>& checks);

/// Writes `content` to `path`; throws std::runtime_error on I/O failure.
void write_text_file(const std::string& path, const std::string& content);

/// Reads a whole file; throws std::runtime_error if unreadable.
std::string read_text_file(const std::string& path);

}  // namespace cirrus::valid
