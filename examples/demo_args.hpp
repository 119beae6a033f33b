// Positional arguments of the climate_forecast and cardiac_demo examples:
// `[platform] [np] [ranks_per_node]`. A bad value is a usage error (exit 2
// with the usage line), never an exception out of run_job.
#pragma once

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>

#include "platform/platform.hpp"

namespace cirrus::demo {

struct JobArgs {
  std::string platform_name;
  plat::Platform platform;
  int np = 1;
  int rpn = -1;  ///< ranks per node; -1 fills every hardware thread
};

/// Parses argv[1..3] (platform, np and, when `takes_rpn`, ranks per node).
/// On a bad value prints the reason and `usage` to stderr and returns
/// nullopt: np must be a whole number >= 1, ranks per node one >= -1, the
/// platform a known name, and the job must fit on that platform.
inline std::optional<JobArgs> parse_job_args(int argc, char** argv, int default_np,
                                             bool takes_rpn, const char* usage) {
  const auto fail = [&](const std::string& why) {
    std::fprintf(stderr, "%s: %s\nusage: %s %s\n", argv[0], why.c_str(), argv[0], usage);
    return std::nullopt;
  };
  const auto int_arg = [&](int i, int fallback, long lo) -> std::optional<int> {
    if (argc <= i) return fallback;
    errno = 0;
    char* end = nullptr;
    const long v = std::strtol(argv[i], &end, 10);
    if (end == argv[i] || *end != '\0' || errno == ERANGE || v < lo || v > INT_MAX) {
      return std::nullopt;
    }
    return static_cast<int>(v);
  };

  const int max_args = takes_rpn ? 4 : 3;
  if (argc > max_args) return fail("too many arguments");
  JobArgs out;
  out.platform_name = argc > 1 ? argv[1] : "vayu";
  try {
    out.platform = plat::by_name(out.platform_name);
  } catch (const std::invalid_argument& e) {
    return fail(e.what());
  }
  const auto np = int_arg(2, default_np, 1);
  if (!np) return fail("np must be an integer >= 1, got '" + std::string(argv[2]) + "'");
  out.np = *np;
  const auto rpn = int_arg(3, -1, -1);
  if (!rpn) {
    return fail("ranks_per_node must be an integer >= -1, got '" + std::string(argv[3]) + "'");
  }
  out.rpn = *rpn;
  if (const std::string why = plat::placement_error(out.platform, out.np, out.rpn);
      !why.empty()) {
    return fail(why);
  }
  return out;
}

}  // namespace cirrus::demo
