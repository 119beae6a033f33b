// JSON run-manifest writer: one machine-readable record per cirrus_bench
// invocation — git SHA, seed, platform specs, every reported metric, every
// reference check's pass/fail, host wall-clock and simulated-event
// throughput. CI uploads the manifest as an artifact so fidelity and
// performance can be tracked across commits. Simulator perf is measured by
// perfbench/ and tracked in BENCH_simulator.json, not here.
#pragma once

#include <array>
#include <cstdint>
#include <map>
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

/// The suite digest: per target, the FNV-1a 64 hash of each deterministic
/// manifest section, rendered exactly as manifest_json renders it (`events`
/// as its decimal count, an absent telemetry or critpath block as an empty
/// array). `host`, `git_sha` and `jobs` are not part of it, so the digest is
/// the same for any --jobs and any build type. `cirrus_bench --check`
/// compares it with src/valid/reference/digest.ref.
inline constexpr std::array<const char*, 4> kDigestSections = {"metrics", "events", "telemetry",
                                                               "critpath"};
using SectionHashes = std::array<std::uint64_t, 4>;  ///< in kDigestSections order
using SuiteDigest = std::map<std::string, SectionHashes>;  ///< keyed by target

[[nodiscard]] SectionHashes digest(const RunReport& report);
/// digest.ref text: comment header, then "target h1 h2 h3 h4" lines.
[[nodiscard]] std::string write_digest(const SuiteDigest& d);
/// Parses write_digest's format; throws std::runtime_error naming `origin`.
[[nodiscard]] SuiteDigest parse_digest(const std::string& text, const std::string& origin);
/// One line per differing (target, section) — or per target with no digest
/// line — of `reports` against `expected`; empty when all match.
[[nodiscard]] std::vector<std::string> digest_mismatches(const SuiteDigest& expected,
                                                         const std::vector<RunReport>& reports);

/// Writes `content` to `path`; throws std::runtime_error on I/O failure.
void write_text_file(const std::string& path, const std::string& content);

/// Reads a whole file; throws std::runtime_error if unreadable.
std::string read_text_file(const std::string& path);

}  // namespace cirrus::valid
