// Tests for the paper-fidelity validation subsystem: tolerance boundaries,
// reference-file parsing (including error positions), quantitative and
// qualitative checks, reference round-trips and the golden JSON manifest.
#include "valid/compare.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

#include "core/report_bridge.hpp"
#include "core/table.hpp"
#include "valid/manifest.hpp"
#include "valid/paths.hpp"
#include "valid/report.hpp"

namespace {

using namespace cirrus;
using valid::CheckStatus;

TEST(Tolerance, BoundaryIsInclusive) {
  const valid::Tolerance tol{.rel = 0.05, .abs = 0.0};
  EXPECT_TRUE(tol.within(100.0, 105.0));   // exactly at the 5% boundary
  EXPECT_TRUE(tol.within(100.0, 95.0));
  EXPECT_FALSE(tol.within(100.0, 105.01));
  EXPECT_FALSE(tol.within(100.0, 94.99));
}

TEST(Tolerance, AbsoluteFloorWinsNearZero) {
  // rel * |expected| is tiny, so the abs term is the active limit.
  const valid::Tolerance tol{.rel = 0.05, .abs = 0.5};
  EXPECT_TRUE(tol.within(0.0, 0.5));
  EXPECT_FALSE(tol.within(0.0, 0.51));
  EXPECT_TRUE(tol.within(1.0, 1.5));  // max(0.5, 0.05) = 0.5
}

TEST(Tolerance, NegativeExpectedUsesMagnitude) {
  const valid::Tolerance tol{.rel = 0.10, .abs = 0.0};
  EXPECT_TRUE(tol.within(-100.0, -91.0));
  EXPECT_FALSE(tol.within(-100.0, -111.0));
}

TEST(Slug, LowercasesAndCollapsesSeparators) {
  EXPECT_EQ(valid::slug("EC2-4"), "ec2-4");
  EXPECT_EQ(valid::slug("fattree 2:1 / scatter"), "fattree_2_1_scatter");
  EXPECT_EQ(valid::slug("  Vayu  "), "vayu");
  EXPECT_EQ(valid::slug("no NUMA masking"), "no_numa_masking");
  EXPECT_EQ(valid::slug("a.b+c-d"), "a.b+c-d");
}

TEST(RunReport, AddAndFind) {
  valid::RunReport r;
  r.add("bw", "vayu", 2, 3200.0, "MB/s").add("bw", "dcc", 2, 190.0, "MB/s");
  ASSERT_NE(r.find("bw", "vayu", 2), nullptr);
  EXPECT_DOUBLE_EQ(r.find("bw", "vayu", 2)->value, 3200.0);
  EXPECT_EQ(r.find("bw", "vayu", 4), nullptr);
  EXPECT_EQ(r.find("lat", "vayu", 2), nullptr);
}

// ---------------------------------------------------------------------------
// Reference grammar

TEST(ReferenceParse, AcceptsAllDirectivesAndComments) {
  const auto ref = valid::ReferenceSet::parse_string(
      "# comment\n"
      "metric fig1 peak_bw vayu 2 3200 0.05 1e-6  # trailing comment\n"
      "\n"
      "expect fig4 speedup_CG ec2 16 lt 4.0\n"
      "order fig1 peak_bw 2 vayu ec2 dcc\n");
  ASSERT_EQ(ref.metrics.size(), 1u);
  EXPECT_EQ(ref.metrics[0].target, "fig1");
  EXPECT_EQ(ref.metrics[0].platform, "vayu");
  EXPECT_EQ(ref.metrics[0].ranks, 2);
  EXPECT_DOUBLE_EQ(ref.metrics[0].value, 3200.0);
  EXPECT_DOUBLE_EQ(ref.metrics[0].tol.rel, 0.05);
  ASSERT_EQ(ref.bounds.size(), 1u);
  EXPECT_EQ(ref.bounds[0].op, valid::BoundOp::Lt);
  ASSERT_EQ(ref.orders.size(), 1u);
  EXPECT_EQ(ref.orders[0].platforms,
            (std::vector<std::string>{"vayu", "ec2", "dcc"}));
}

TEST(ReferenceParse, ErrorsCarryOriginAndLine) {
  try {
    valid::ReferenceSet::parse_string("metric fig1 bw vayu 2 100 0.05\n", "x.ref");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("x.ref:1"), std::string::npos) << e.what();
  }
  // Line numbers advance past blank/comment lines.
  try {
    valid::ReferenceSet::parse_string("# fine\n\nbogus fig1 bw vayu 2 1 0 0\n", "y.ref");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("y.ref:3"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos) << e.what();
  }
}

TEST(ReferenceParse, RejectsMalformedFields) {
  EXPECT_THROW(valid::ReferenceSet::parse_string("metric f m p two 1 0.05 0\n"),
               std::runtime_error);  // non-numeric ranks
  EXPECT_THROW(valid::ReferenceSet::parse_string("metric f m p 2 1 -0.05 0\n"),
               std::runtime_error);  // negative tolerance
  EXPECT_THROW(valid::ReferenceSet::parse_string("metric f m p 2 1.5x 0.05 0\n"),
               std::runtime_error);  // trailing junk in number
  EXPECT_THROW(valid::ReferenceSet::parse_string("expect f m p 2 between 1\n"),
               std::runtime_error);  // unknown bound op
  EXPECT_THROW(valid::ReferenceSet::parse_string("order f m 2 vayu\n"),
               std::runtime_error);  // order needs >= 2 platforms
}

// ---------------------------------------------------------------------------
// Checking reports against references

std::vector<valid::RunReport> sample_reports() {
  valid::RunReport fig1;
  fig1.target = "fig1";
  fig1.add("peak_bw", "vayu", 2, 3200.0, "MB/s")
      .add("peak_bw", "ec2", 2, 560.0, "MB/s")
      .add("peak_bw", "dcc", 2, 190.0, "MB/s");
  valid::RunReport fig4;
  fig4.target = "fig4";
  fig4.add("speedup_CG", "ec2", 16, 2.7);
  return {fig1, fig4};
}

TEST(Check, MetricPassFailAndMissing) {
  const auto ref = valid::ReferenceSet::parse_string(
      "metric fig1 peak_bw vayu 2 3200 0.05 0\n"    // pass (exact)
      "metric fig1 peak_bw dcc 2 250 0.05 0\n"      // fail (190 vs 250)
      "metric fig1 peak_bw azure 2 100 0.05 0\n");  // missing platform
  const auto results = valid::check(sample_reports(), ref);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].status, CheckStatus::Pass);
  EXPECT_EQ(results[1].status, CheckStatus::Fail);
  EXPECT_EQ(results[2].status, CheckStatus::Missing);
  EXPECT_EQ(valid::failures(results), 2);
}

TEST(Check, QualitativeBoundsAndOrdering) {
  const auto ref = valid::ReferenceSet::parse_string(
      // "EC2 CG efficiency collapses past 8 ranks": speedup well below ideal.
      "expect fig4 speedup_CG ec2 16 lt 4.0\n"
      "expect fig4 speedup_CG ec2 16 ge 2.7\n"  // boundary: ge is inclusive
      "expect fig4 speedup_CG ec2 16 gt 2.7\n"  // strict: fails at boundary
      // "Vayu > EC2 > DCC bandwidth ordering".
      "order fig1 peak_bw 2 vayu ec2 dcc\n"
      "order fig1 peak_bw 2 dcc ec2 vayu\n"     // wrong direction
      "order fig1 peak_bw 2 vayu ec2 azure\n"); // unknown platform
  const auto results = valid::check(sample_reports(), ref);
  ASSERT_EQ(results.size(), 6u);
  EXPECT_EQ(results[0].status, CheckStatus::Pass);
  EXPECT_EQ(results[1].status, CheckStatus::Pass);
  EXPECT_EQ(results[2].status, CheckStatus::Fail);
  EXPECT_EQ(results[3].status, CheckStatus::Pass);
  EXPECT_EQ(results[4].status, CheckStatus::Fail);
  EXPECT_EQ(results[5].status, CheckStatus::Missing);
}

TEST(Check, RenderFailuresOnlyFiltersPasses) {
  const auto ref = valid::ReferenceSet::parse_string(
      "metric fig1 peak_bw vayu 2 3200 0.05 0\n"
      "metric fig1 peak_bw dcc 2 250 0.05 0\n");
  const auto results = valid::check(sample_reports(), ref);
  const std::string failures = valid::render_checks(results, /*failures_only=*/true);
  EXPECT_EQ(failures.find("vayu"), std::string::npos);
  EXPECT_NE(failures.find("dcc"), std::string::npos);
  const std::string all = valid::render_checks(results, /*failures_only=*/false);
  EXPECT_NE(all.find("vayu"), std::string::npos);
}

TEST(Check, WriteReferenceRoundTripsAndCatchesPerturbation) {
  auto reports = sample_reports();
  const std::string text = valid::write_reference(reports, 0.05, 1e-6);
  const auto ref = valid::ReferenceSet::parse_string(text, "generated.ref");
  ASSERT_EQ(ref.metrics.size(), 4u);
  EXPECT_EQ(valid::failures(valid::check(reports, ref)), 0);

  // A perturbation beyond tolerance must trip the gate.
  reports[0].metrics[0].value *= 1.06;
  EXPECT_GT(valid::failures(valid::check(reports, ref)), 0);
  // ... and one within tolerance must not.
  reports[0].metrics[0].value = 3200.0 * 1.04;
  EXPECT_EQ(valid::failures(valid::check(reports, ref)), 0);
}

// ---------------------------------------------------------------------------
// Bridge from core::Figure

TEST(ReportBridge, FigureSeriesBecomeMetrics) {
  core::Figure fig;
  fig.id = "fig5";
  fig.series = {{"vayu total", {{1, 1.0}, {8, 6.5}}},
                {"vayu KSp", {{8, 5.0}}},
                {"DCC (GigE)", {{8, 2.0}}}};
  valid::RunReport out;
  core::figure_to_report(fig, "speedup", "", out);
  ASSERT_EQ(out.metrics.size(), 4u);
  ASSERT_NE(out.find("speedup_total", "vayu", 8), nullptr);
  EXPECT_DOUBLE_EQ(out.find("speedup_total", "vayu", 8)->value, 6.5);
  EXPECT_NE(out.find("speedup_KSp", "vayu", 8), nullptr);
  // Parenthesised annotations are dropped, platform is slugged.
  EXPECT_NE(out.find("speedup", "dcc", 8), nullptr);
}

// ---------------------------------------------------------------------------
// Paths and reference discovery

TEST(Paths, EnvironmentOverridesWin) {
  ::setenv("CIRRUS_SOURCE_ROOT", "/tmp/elsewhere", 1);
  EXPECT_EQ(valid::source_root(), "/tmp/elsewhere");
  EXPECT_EQ(valid::reference_dir(), "/tmp/elsewhere/src/valid/reference");
  EXPECT_EQ(valid::test_data_dir(), "/tmp/elsewhere/tests/data");
  ::setenv("CIRRUS_REFERENCE_DIR", "/tmp/refs", 1);
  EXPECT_EQ(valid::reference_dir(), "/tmp/refs");
  ::unsetenv("CIRRUS_SOURCE_ROOT");
  ::unsetenv("CIRRUS_REFERENCE_DIR");
}

TEST(Paths, DefaultRootIsTheSourceTree) {
  // The compile definition points at the configure-time source dir, so data
  // lookups are CWD-independent: this test passes no matter where ctest runs.
  EXPECT_NE(valid::source_root(), "");
  EXPECT_NE(valid::source_root(), ".");
}

TEST(ReferenceLoad, LoadDefaultMergesAllRefFiles) {
  const auto ref = valid::ReferenceSet::load_default();
  EXPECT_GT(ref.size(), 0u);
  // The committed set includes both quantitative pins and the hand-curated
  // qualitative shape checks.
  EXPECT_GT(ref.metrics.size(), 0u);
  EXPECT_GT(ref.bounds.size() + ref.orders.size(), 0u);
}

TEST(ReferenceLoad, MissingDirectoryThrows) {
  ::setenv("CIRRUS_REFERENCE_DIR", "/nonexistent/refs", 1);
  EXPECT_THROW(valid::ReferenceSet::load_default(), std::runtime_error);
  ::unsetenv("CIRRUS_REFERENCE_DIR");
  EXPECT_THROW(valid::ReferenceSet::load("/nonexistent/file.ref"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Manifest

TEST(Manifest, GitShaEnvOverrideWins) {
  ::setenv("CIRRUS_GIT_SHA", "deadbeef1234", 1);
  EXPECT_EQ(valid::build_git_sha(), "deadbeef1234");
  ::unsetenv("CIRRUS_GIT_SHA");
  EXPECT_NE(valid::build_git_sha(), "");
}

valid::ManifestContext golden_context() {
  valid::ManifestContext ctx;
  ctx.suite = "paper";
  ctx.git_sha = "0123456789ab";  // pinned: goldens must not depend on HEAD
  ctx.seed = 1;
  ctx.jobs = 4;
  ctx.include_platforms = false;  // keep the golden platform-spec independent
  ctx.include_nondeterministic = false;  // golden must be byte-stable across hosts
  return ctx;
}

TEST(Manifest, GoldenRoundTrip) {
  auto reports = sample_reports();
  reports[0].title = "OSU bandwidth";
  reports[0].host_ms = 125.5;
  reports[0].events = 42000;
  reports[0].telemetry = {{"sim_events_total", 42000}, {"mpi_sends_eager", 512}};
  reports[1].title = "NPB speedup";
  reports[1].host_ms = 74.25;
  const auto ref = valid::ReferenceSet::parse_string(
      "metric fig1 peak_bw vayu 2 3200 0.05 0\n"
      "metric fig1 peak_bw dcc 2 250 0.05 0\n"
      "order fig1 peak_bw 2 vayu ec2 azure\n");
  const std::string json =
      valid::manifest_json(golden_context(), reports, valid::check(reports, ref));

  const std::string path = valid::test_data_dir() + "/manifest_golden.json";
  if (std::getenv("CIRRUS_UPDATE_GOLDEN") != nullptr) {
    valid::write_text_file(path, json);
    GTEST_SKIP() << "golden regenerated at " << path;
  }
  EXPECT_EQ(json, valid::read_text_file(path))
      << "manifest schema changed; rerun with CIRRUS_UPDATE_GOLDEN=1 to regenerate";
}

TEST(Manifest, HostSectionIsGatedByNondeterministicFlag) {
  auto reports = sample_reports();
  reports[0].host_ms = 125.5;
  reports[0].events = 42000;
  auto ctx = golden_context();

  // Golden mode: no wall-clock fields anywhere in the output.
  std::string json = valid::manifest_json(ctx, reports, {});
  EXPECT_EQ(json.find("\"host\""), std::string::npos);
  EXPECT_EQ(json.find("host_ms"), std::string::npos);
  EXPECT_EQ(json.find("events_per_sec"), std::string::npos);
  // Deterministic event counts stay in the main section.
  EXPECT_NE(json.find("\"total_events\": 42000"), std::string::npos);

  ctx.include_nondeterministic = true;
  json = valid::manifest_json(ctx, reports, {});
  EXPECT_NE(json.find("\"host\""), std::string::npos);
  EXPECT_NE(json.find("\"host_ms\": 125.5"), std::string::npos);
  EXPECT_NE(json.find("\"total_host_ms\": 125.5"), std::string::npos);
  EXPECT_NE(json.find("events_per_sec"), std::string::npos);
}

TEST(Manifest, TelemetryBlockIsDeterministicSection) {
  auto reports = sample_reports();
  reports[0].telemetry = {{"sim_events_total", 7}, {"net_bytes_internode", 4096}};
  const std::string json = valid::manifest_json(golden_context(), reports, {});
  EXPECT_NE(json.find("\"telemetry\": ["), std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"sim_events_total\", \"value\": 7}"), std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"net_bytes_internode\", \"value\": 4096}"),
            std::string::npos);
  // Reports without telemetry omit the block entirely.
  EXPECT_EQ(json.find("\"telemetry\": []"), std::string::npos);
}

TEST(Manifest, CountsChecks) {
  const auto ctx = golden_context();
  const auto reports = sample_reports();
  const auto ref = valid::ReferenceSet::parse_string(
      "metric fig1 peak_bw vayu 2 3200 0.05 0\n"
      "metric fig1 peak_bw dcc 2 250 0.05 0\n"
      "metric fig1 peak_bw azure 2 100 0.05 0\n");
  const std::string json = valid::manifest_json(ctx, reports, valid::check(reports, ref));
  EXPECT_NE(json.find("\"passed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"failed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"missing\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"fail\""), std::string::npos);
}

}  // namespace
