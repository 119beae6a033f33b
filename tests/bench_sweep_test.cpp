// Tests for bench::sweep, the one way a bench target runs its jobs: each
// RunRequest goes through serve::execute(), results come back in request
// order for any worker count, every job's events are credited to the
// report, and an invalid request surfaces as std::invalid_argument.
#include "bench/job.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using namespace cirrus;

std::vector<core::RunRequest> small_requests() {
  return {
      {.workload = "npb", .bench = "CG", .cls = "S", .np = 4},
      {.workload = "metum", .np = 8},
      {.workload = "chaste", .np = 8},
      {.workload = "wf", .np = 4, .wf_shape = "montage"},
  };
}

core::Options with_jobs(const char* jobs) {
  const char* argv[] = {"bench_sweep_test", "--jobs", jobs};
  return core::Options(3, argv);
}

struct Projection {
  double elapsed_s = 0;
  std::uint64_t events = 0;
  std::map<std::string, double> values;
  bool operator==(const Projection&) const = default;
};

Projection project(const serve::RunOutcome& o) {
  return {o.result.elapsed_seconds, o.result.events_processed, o.result.values};
}

TEST(BenchSweep, ProjectionsKeepRequestOrderForAnyWorkerCount) {
  const auto reqs = small_requests();
  valid::RunReport serial_report, parallel_report;
  const auto serial = bench::sweep(reqs, with_jobs("1"), serial_report, project);
  const auto parallel = bench::sweep(reqs, with_jobs("3"), parallel_report, project);
  ASSERT_EQ(serial.size(), reqs.size());
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial_report.events, parallel_report.events);
  // Request order: the wf request (last) is the only one with wf values,
  // the metum request (second) the only one with a warmed time.
  EXPECT_EQ(serial[1].values.count("um_warmed_seconds"), 1u);
  EXPECT_EQ(serial[3].values.count("wf_makespan_s"), 1u);
  EXPECT_EQ(serial[0].values.at("verified"), 1.0);
}

TEST(BenchSweep, CreditsEveryJobsEventsToTheReport) {
  const auto reqs = small_requests();
  valid::RunReport report;
  report.events = 7;  // sweep adds to what the target already counted
  const auto events = bench::sweep(reqs, with_jobs("2"), report, [](const serve::RunOutcome& o) {
    return o.result.events_processed;
  });
  std::uint64_t expected = 7;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const std::uint64_t e = serve::execute(reqs[i]).result.events_processed;
    EXPECT_GT(e, 0u);
    EXPECT_EQ(events[i], e);
    expected += e;
  }
  EXPECT_EQ(report.events, expected);
}

TEST(BenchSweep, InvalidRequestThrowsInvalidArgument) {
  auto reqs = small_requests();
  reqs.push_back({.workload = "npb", .bench = "CG", .cls = "S", .np = 0});
  valid::RunReport report;
  EXPECT_THROW((void)bench::sweep(reqs, with_jobs("2"), report,
                                  [](const serve::RunOutcome& o) { return o.result.events_processed; }),
               std::invalid_argument);
}

}  // namespace
