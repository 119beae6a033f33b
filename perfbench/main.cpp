// cirrus_perfbench — the repository's benchmark program.
//
//   cirrus_perfbench --workload sim-paper|sim-execute|sim-traced|serve-mix
//                    --seed N --seconds S --trace 0|1 [--root DIR]
//                    [--t0 NS] [--setup-only] [--setup-samples S,S,...]
//   cirrus_perfbench --record > recorded.tsv  (regenerates the recorded values)
//
// --trace 0 measures the end-to-end metrics with no benchmark tracing;
// --trace 1 is the separate traced run that produces the per-layer metrics.
// Output: a `# context` line stamping the run (git sha, nproc, build type,
// NDEBUG, compiler, LLC size, load average), human-readable `#` lines, and
// as the last line one JSON object {correct, attempted, failed, metrics}.
// Every correctness check feeds `failed`; error_frac = failed / attempted.
//
// setup_s is process start to the first timed call. The launcher passes its
// CLOCK_MONOTONIC reading taken just before it started the process (--t0,
// nanoseconds); without it the clock starts at main. --setup-only sets up,
// prints `setup_s <seconds>` and exits before the first timed call; the
// launcher runs a few of those first and hands their times to the measured
// run (--setup-samples), which reports the median of them and its own.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json_writer.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: cirrus_perfbench --workload sim-paper|sim-execute|sim-traced|serve-mix\n"
               "                        --seed N --seconds S --trace 0|1 [--root DIR]\n"
               "                        [--t0 NS] [--setup-only] [--setup-samples S,S,...]\n"
               "       cirrus_perfbench --record\n");
  return 2;
}

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// Size of the last-level (L3, else L2) cache of cpu0, as the kernel reports it.
std::string llc_size() {
  std::string best;
  for (int i = 0; i < 8; ++i) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
    const std::string level = read_first_line(dir + "/level");
    if (level.empty()) break;
    if (level == "3" || (level == "2" && best.empty())) best = read_first_line(dir + "/size");
  }
  return best.empty() ? "unknown" : best;
}

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

/// Prints the run context. Returns false for an assert-enabled or
/// unoptimised build: its figures are not comparable with a baseline.
bool print_context(const RunArgs& args) {
  const char* sha = std::getenv("CIRRUS_GIT_SHA");
  const std::string build_type = CIRRUS_PERFBENCH_BUILD_TYPE;
  const bool comparable =
      kNdebug && (build_type == "Release" || build_type == "RelWithDebInfo");
  const std::string load = read_first_line("/proc/loadavg");
  cirrus::obs::jsonw::Writer w;
  w.begin_object();
  w.key("workload").value(args.workload);
  w.key("seed").value(static_cast<unsigned long long>(args.seed));
  w.key("trace").value(args.trace);
  w.key("git_sha").value(sha != nullptr && *sha != '\0' ? sha : "unknown");
  w.key("nproc").value(static_cast<long long>(std::thread::hardware_concurrency()));
  w.key("build_type").value(build_type);
  w.key("ndebug").value(kNdebug);
  w.key("compiler").value(CIRRUS_PERFBENCH_COMPILER);
  w.key("llc").value(llc_size());
  w.key("loadavg_1m").value(std::strtod(load.c_str(), nullptr));
  w.key("comparable").value(comparable);
  w.end_object();
  std::printf("# context %s\n", w.str().c_str());
  if (!comparable) {
    std::fprintf(stderr,
                 "perfbench: %s build with NDEBUG %s is not comparable with a baseline; "
                 "build Release\n",
                 build_type.c_str(), kNdebug ? "set" : "unset");
  }
  return comparable;
}

void print_result(const Outcome& o) {
  const auto attempted = o.tally.attempted();
  const auto failed = o.tally.failed();
  std::printf("# error_frac %.6g (%llu failed of %llu attempted)\n",
              attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 1.0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  cirrus::obs::jsonw::Writer w;
  w.begin_object();
  w.key("correct").value(failed == 0 && attempted > 0);
  w.key("attempted").value(static_cast<unsigned long long>(attempted));
  w.key("failed").value(static_cast<unsigned long long>(failed));
  w.key("metrics").begin_object();
  for (const auto& m : o.metrics.items()) {
    std::printf("# %-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    w.key(m.name).begin_object().key("value").value(m.value).key("unit").value(m.unit).end_object();
  }
  w.end_object().end_object();
  std::printf("%s\n", w.str().c_str());
}

std::vector<double> parse_samples(const std::string& list) {
  std::vector<double> out;
  std::size_t at = 0;
  while (at < list.size()) {
    std::size_t used = 0;
    out.push_back(std::stod(list.substr(at), &used));
    at += used;
    if (at < list.size() && list[at++] != ',') throw std::invalid_argument("bad sample list");
  }
  return out;
}

}  // namespace

namespace perfbench {

double setup_elapsed(const RunArgs& args) { return seconds_since(args.start); }

double setup_median(const RunArgs& args, double own) {
  std::vector<double> all = args.setup_samples;
  all.push_back(own);
  std::printf("# setup_s: %.6f s in this process, median of %zu set-ups\n", own, all.size());
  return median(all);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  RunArgs args;
  bool record = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        args.workload = value();
      } else if (a == "--seed") {
        args.seed = std::stoull(value());
      } else if (a == "--seconds") {
        args.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") return usage();
        args.trace = t == "1";
        have_trace = true;
      } else if (a == "--root") {
        args.root = value();
      } else if (a == "--t0") {
        const Clock::time_point t0{std::chrono::nanoseconds(std::stoll(value()))};
        // A reading from another clock or a stale one falls back to main.
        if (t0 <= args.start && args.start - t0 < std::chrono::seconds(60)) args.start = t0;
      } else if (a == "--setup-only") {
        args.setup_only = true;
      } else if (a == "--setup-samples") {
        args.setup_samples = parse_samples(value());
      } else if (a == "--record") {
        record = true;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  try {
    if (record) return record_table();
    if (!have_trace || !(is_sim_workload(args.workload) || args.workload == "serve-mix") ||
        args.seconds <= 0) {
      return usage();
    }
    if (!self_test()) return 3;
    if (!print_context(args)) return 3;
    std::fflush(stdout);
    const Outcome o =
        is_sim_workload(args.workload) ? run_sim_workload(args) : run_serve_mix(args);
    if (args.setup_only) {
      for (const auto& m : o.metrics.items()) {
        if (m.name == "setup_s") std::printf("setup_s %.9f\n", m.value);
      }
    } else {
      print_result(o);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
