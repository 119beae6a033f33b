#include "valid/manifest.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/json_writer.hpp"
#include "platform/platform.hpp"

#ifndef CIRRUS_GIT_SHA
#define CIRRUS_GIT_SHA "unknown"
#endif

namespace cirrus::valid {

namespace {

// Shared emission policy (obs::jsonw): shortest round-trip numbers, RFC 8259
// escaping — byte-identical to the writers the rest of the toolkit uses.
using obs::jsonw::number;
using obs::jsonw::quote;

std::string json_number(double v) { return number(v); }
std::string json_string(const std::string& s) { return quote(s); }

const char* json_status(CheckStatus s) noexcept {
  switch (s) {
    case CheckStatus::Pass: return "pass";
    case CheckStatus::Fail: return "fail";
    case CheckStatus::Missing: return "missing";
  }
  return "?";
}

}  // namespace

std::string build_git_sha() {
  if (const char* env = std::getenv("CIRRUS_GIT_SHA"); env != nullptr && *env != '\0') {
    return env;
  }
  return CIRRUS_GIT_SHA;
}

std::string manifest_json(const ManifestContext& ctx, const std::vector<RunReport>& reports,
                          const std::vector<CheckResult>& checks) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"cirrus-manifest/2\",\n";
  os << "  \"generator\": " << json_string(ctx.generator) << ",\n";
  os << "  \"suite\": " << json_string(ctx.suite) << ",\n";
  os << "  \"git_sha\": " << json_string(ctx.git_sha.empty() ? build_git_sha() : ctx.git_sha)
     << ",\n";
  os << "  \"seed\": " << ctx.seed << ",\n";
  os << "  \"jobs\": " << ctx.jobs << ",\n";

  if (ctx.include_platforms) {
    os << "  \"platforms\": [\n";
    const auto platforms = plat::all_platforms();
    for (std::size_t i = 0; i < platforms.size(); ++i) {
      const auto& p = platforms[i];
      os << "    {\"name\": " << json_string(p.name) << ", \"generation\": " << p.generation
         << ", \"nodes\": " << p.nodes
         << ", \"cores_per_node\": " << p.cores_per_node
         << ", \"hw_threads_per_node\": " << p.hw_threads_per_node
         << ", \"mem_per_node_GB\": " << json_number(p.mem_per_node_GB)
         << ", \"interconnect\": " << json_string(p.interconnect) << "}"
         << (i + 1 < platforms.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
  }

  // Deterministic per-target section: metrics and virtual-time-derived
  // telemetry counters only. Wall-clock timings live in the separate "host"
  // section below so golden fixtures can exclude everything non-reproducible.
  std::uint64_t total_events = 0;
  os << "  \"targets\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto& r = reports[i];
    total_events += r.events;
    os << "    {\"target\": " << json_string(r.target) << ", \"title\": " << json_string(r.title)
       << ", \"events\": " << r.events << ", \"metrics\": [\n";
    for (std::size_t j = 0; j < r.metrics.size(); ++j) {
      const auto& m = r.metrics[j];
      os << "      {\"name\": " << json_string(m.name)
         << ", \"platform\": " << json_string(m.platform) << ", \"ranks\": " << m.ranks
         << ", \"value\": " << json_number(m.value) << ", \"units\": " << json_string(m.units)
         << "}" << (j + 1 < r.metrics.size() ? "," : "") << "\n";
    }
    os << "    ]";
    if (!r.telemetry.empty()) {
      os << ", \"telemetry\": [\n";
      for (std::size_t j = 0; j < r.telemetry.size(); ++j) {
        os << "      {\"name\": " << json_string(r.telemetry[j].first)
           << ", \"value\": " << r.telemetry[j].second << "}"
           << (j + 1 < r.telemetry.size() ? "," : "") << "\n";
      }
      os << "    ]";
    }
    if (!r.critpath.empty()) {
      // Critical-path blame block: same row shape as "metrics" so
      // tools/manifest_diff.py can index both uniformly. Deterministic —
      // derived from the virtual-time trace only.
      os << ", \"critpath\": [\n";
      for (std::size_t j = 0; j < r.critpath.size(); ++j) {
        const auto& m = r.critpath[j];
        os << "      {\"name\": " << json_string(m.name)
           << ", \"platform\": " << json_string(m.platform) << ", \"ranks\": " << m.ranks
           << ", \"value\": " << json_number(m.value) << ", \"units\": " << json_string(m.units)
           << "}" << (j + 1 < r.critpath.size() ? "," : "") << "\n";
      }
      os << "    ]";
    }
    os << "}" << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"total_events\": " << total_events << ",\n";

  if (ctx.include_nondeterministic) {
    double total_host_ms = 0;
    os << "  \"host\": {\"comment\": \"wall-clock measurements; varies run to run\","
       << " \"targets\": [\n";
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const auto& r = reports[i];
      total_host_ms += r.host_ms;
      const double evps =
          r.host_ms > 0 ? static_cast<double>(r.events) / (r.host_ms / 1e3) : 0.0;
      os << "    {\"target\": " << json_string(r.target)
         << ", \"host_ms\": " << json_number(r.host_ms)
         << ", \"events_per_sec\": " << json_number(evps) << "}"
         << (i + 1 < reports.size() ? "," : "") << "\n";
    }
    os << "  ], \"total_host_ms\": " << json_number(total_host_ms) << "},\n";
  }

  int passed = 0, failed = 0, missing = 0;
  for (const auto& c : checks) {
    if (c.status == CheckStatus::Pass) ++passed;
    else if (c.status == CheckStatus::Fail) ++failed;
    else ++missing;
  }
  os << "  \"checks\": {\"total\": " << checks.size() << ", \"passed\": " << passed
     << ", \"failed\": " << failed << ", \"missing\": " << missing << ", \"results\": [\n";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const auto& c = checks[i];
    os << "    {\"kind\": " << json_string(c.kind) << ", \"target\": " << json_string(c.target)
       << ", \"name\": " << json_string(c.name) << ", \"platform\": " << json_string(c.platform)
       << ", \"ranks\": " << c.ranks << ", \"expected\": " << json_number(c.expected)
       << ", \"actual\": " << json_number(c.actual) << ", \"status\": \"" << json_status(c.status)
       << "\"}" << (i + 1 < checks.size() ? "," : "") << "\n";
  }
  os << "  ]}\n}\n";
  return os.str();
}

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  out << content;
  if (!out.flush()) throw std::runtime_error("write failed: " + path);
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace cirrus::valid
