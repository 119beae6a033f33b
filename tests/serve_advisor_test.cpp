// The advisor pipeline: deterministic, structurally sane, reaching the
// expected verdicts, and fed by the one parser /advise and `cirrus_run
// advise` share.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "serve/advisor.hpp"
#include "serve/service.hpp"

namespace {

using namespace cirrus::serve;

TEST(Advisor, Deterministic) {
  const AdvisorRequest req;
  const AdvisorResult a = advise(req);
  const AdvisorResult b = advise(req);
  EXPECT_EQ(a.local_runtime_s, b.local_runtime_s);
  EXPECT_EQ(a.predicted_s, b.predicted_s);
  EXPECT_EQ(a.spot_cost_usd, b.spot_cost_usd);
  EXPECT_EQ(a.advice, b.advice);
  // The JSON blob (the /advise cache payload) is byte-stable too.
  EXPECT_EQ(advise_json(req), advise_json(req));
}

TEST(Advisor, PipelineFieldsAreSane) {
  AdvisorRequest req;
  req.bench = "CG";
  req.np = 16;
  req.queue_wait_h = 4.0;
  const AdvisorResult a = advise(req);

  EXPECT_GT(a.local_runtime_s, 0);
  EXPECT_GT(a.local_comm_pct, 0);
  EXPECT_GT(a.image_size_mb, 0);
  EXPECT_TRUE(a.isa_rebuild_needed) << "the paper's SSE4 barrier fires on first deploy";
  EXPECT_FALSE(a.isa_error.empty());
  EXPECT_EQ(a.instances, 2) << "one cc1.4xlarge per 8 ranks";
  EXPECT_GT(a.predicted_s, 0);
  EXPECT_NEAR(a.predicted_s, a.predicted_comp_s + a.predicted_comm_s,
              0.01 * a.predicted_s);
  EXPECT_NEAR(a.slowdown, a.predicted_s / a.local_runtime_s, 1e-12);
  EXPECT_NEAR(a.local_turnaround_s, 4.0 * 3600 + a.local_runtime_s, 1e-9);
  EXPECT_GT(a.on_demand_cost_usd, a.spot_cost_usd) << "spot must undercut on-demand";
}

TEST(Advisor, AdviceLogic) {
  // Long queue + modest slowdown: burst.
  AdvisorRequest longq;
  longq.queue_wait_h = 4.0;
  const auto burst = advise(longq);
  EXPECT_EQ(burst.advice, AdvisorResult::Advice::Burst);
  EXPECT_STREQ(burst.advice_string(), "burst");

  // Zero queue wait: the cloud's deploy+boot overhead can't win.
  AdvisorRequest noq;
  noq.queue_wait_h = 0.0;
  const auto stay = advise(noq);
  EXPECT_NE(stay.advice, AdvisorResult::Advice::Burst);
}

TEST(Advisor, CanonicalKeyAndErrors) {
  AdvisorRequest req;
  req.bench = "CG";
  req.np = 16;
  req.queue_wait_h = 4.0;
  req.seed = 42;
  EXPECT_EQ(req.canonical_key(), "advise bench=CG np=16 queue_wait_h=4 seed=42");

  AdvisorRequest bad;
  bad.np = 0;
  EXPECT_THROW(advise(bad), std::invalid_argument);
  AdvisorRequest unknown;
  unknown.bench = "NOPE";
  EXPECT_THROW(advise(unknown), std::exception);
}

TEST(Advisor, ParseNormalisesAndRejects) {
  AdvisorRequest req;
  std::string error;
  ASSERT_TRUE(AdvisorRequest::parse(
      {{"bench", "cg"}, {"np", "16"}, {"queue_wait_h", "4"}, {"seed", "42"}}, req, &error))
      << error;
  EXPECT_EQ(req.canonical_key(), "advise bench=CG np=16 queue_wait_h=4 seed=42");
  ASSERT_TRUE(AdvisorRequest::parse({{"queue_wait_hours", "2.5"}}, req, &error)) << error;
  EXPECT_EQ(req.queue_wait_h, 2.5);
  EXPECT_EQ(req.bench, "CG") << "keys not given keep their defaults";

  for (const auto& [k, v] : std::vector<std::pair<std::string, std::string>>{
           {"np", "99999999999"},  // would truncate to 1215752191 as an int
           {"np", "0"},
           {"np", "8x"},
           {"np", ""},
           {"bench", "XX"},
           {"queue_wait_hours", "-1"},
           {"queue_wait_hours", "inf"},
           {"queue_wait_hours", "nan"},
           {"seed", "-1"},
           {"class", "B"}}) {
    EXPECT_FALSE(AdvisorRequest::parse({{k, v}}, req, &error)) << k << "=" << v;
    EXPECT_EQ(error.rfind(k == "class" ? "unknown key" : k + ":", 0), 0U) << error;
  }
}

}  // namespace
