// Trace JSON validity: every Chrome/Perfetto artifact the simulator writes
// must parse under the strict jsonlite grammar (what Perfetto and
// `python3 -m json.tool` accept), flow events must come in matched s/f pairs,
// counter tracks must carry sampled values, and the serialised form is pinned
// by a golden fixture.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "mpi/minimpi.hpp"
#include "obs/jsonlite.hpp"
#include "obs/sampler.hpp"
#include "obs/span.hpp"
#include "obs/trace_export.hpp"
#include "platform/platform.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "valid/manifest.hpp"
#include "valid/paths.hpp"

namespace {

using namespace cirrus;
using obs::jsonlite::Value;

/// A small fixed trace exercising every event family.
obs::SpanSet fixture_trace() {
  obs::SpanSet t;
  obs::SpanRecorder rank0(&t, 0);
  obs::SpanRecorder rank1(&t, 1);
  obs::SpanRecorder global(&t, -1);
  rank0.interval(sim::from_micros(0), sim::from_micros(500), obs::kComputeCategory);
  rank1.interval(sim::from_micros(100), sim::from_micros(400),
                 obs::mpi_category(ipm::CallKind::Recv), 4096, 0);
  rank1.flow(0, sim::from_micros(120), sim::from_micros(380), 4096);
  global.instant(sim::from_micros(250), "checkpoint commit");
  rank1.instant(sim::from_micros(300), "marker \"quoted\"");
  return t;
}

/// The fixture's plain export (no counter tracks).
std::string fixture_json() {
  const obs::SpanSet trace = fixture_trace();
  return obs::enriched_chrome_json(&trace, nullptr);
}

obs::Sampler fixture_sampler() {
  sim::Engine engine;
  obs::Sampler s;
  double v = 1;
  s.add_channel("queue_depth", [&v] { return v; });
  engine.schedule_after(sim::from_micros(150), [&v] { v = 3.5; });
  bool alive = true;
  engine.schedule_after(sim::from_micros(450), [&alive] { alive = false; });
  s.install(engine, sim::from_micros(200), [&alive] { return alive; });
  engine.run();
  return s;
}

std::vector<const Value*> events_of_phase(const Value& doc, const std::string& ph) {
  std::vector<const Value*> out;
  for (const auto& ev : doc.array) {
    if (const Value* p = ev.find("ph"); p != nullptr && p->str == ph) out.push_back(&ev);
  }
  return out;
}

TEST(TraceJson, ChromeJsonIsStrictlyValid) {
  const std::string json = fixture_json();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.substr(json.size() - 2), "]\n");
  std::string error;
  EXPECT_TRUE(obs::jsonlite::validate(json, &error)) << error;
}

TEST(TraceJson, FlowEventsArePairedById) {
  const std::string json = fixture_json();
  Value doc;
  std::string error;
  ASSERT_TRUE(obs::jsonlite::parse(json, doc, &error)) << error;
  ASSERT_TRUE(doc.is(Value::Type::Array));
  const auto starts = events_of_phase(doc, "s");
  const auto finishes = events_of_phase(doc, "f");
  ASSERT_EQ(starts.size(), 1U);
  ASSERT_EQ(finishes.size(), 1U);
  EXPECT_EQ(starts[0]->find("id")->number, finishes[0]->find("id")->number);
  EXPECT_EQ(starts[0]->find("cat")->str, "msg");
  EXPECT_EQ(finishes[0]->find("bp")->str, "e");
  EXPECT_EQ(starts[0]->find("tid")->number, 0);  // sender's row
  EXPECT_EQ(finishes[0]->find("tid")->number, 1);
  EXPECT_LT(starts[0]->find("ts")->number, finishes[0]->find("ts")->number);
}

TEST(TraceJson, InstantAndMetadataRows) {
  const std::string json = fixture_json();
  Value doc;
  ASSERT_TRUE(obs::jsonlite::parse(json, doc));
  const auto instants = events_of_phase(doc, "i");
  ASSERT_EQ(instants.size(), 2U);
  EXPECT_EQ(instants[0]->find("s")->str, "g");  // global marker
  EXPECT_EQ(instants[1]->find("s")->str, "t");  // rank-scoped
  EXPECT_EQ(instants[1]->find("name")->str, "marker \"quoted\"");
  // One thread_name metadata row per rank present in the trace.
  EXPECT_EQ(events_of_phase(doc, "M").size(), 2U);
}

TEST(TraceJson, EnrichedJsonAddsCounterTracks) {
  const obs::SpanSet trace = fixture_trace();
  const obs::Sampler sampler = fixture_sampler();
  const std::string json = obs::enriched_chrome_json(&trace, &sampler);
  std::string error;
  Value doc;
  ASSERT_TRUE(obs::jsonlite::parse(json, doc, &error)) << error;
  const auto counters = events_of_phase(doc, "C");
  ASSERT_EQ(counters.size(), sampler.rows().size());
  EXPECT_EQ(counters[0]->find("name")->str, "queue_depth");
  EXPECT_DOUBLE_EQ(counters[0]->find("args")->find("value")->number, 1.0);
  EXPECT_DOUBLE_EQ(counters.back()->find("args")->find("value")->number, 3.5);
  // Null inputs degrade to an empty (but valid) array.
  EXPECT_EQ(obs::enriched_chrome_json(nullptr, nullptr), "[]\n");
}

TEST(TraceJson, GoldenFixtureRoundTrip) {
  const obs::SpanSet trace = fixture_trace();
  const obs::Sampler sampler = fixture_sampler();
  const std::string json = obs::enriched_chrome_json(&trace, &sampler);

  const std::string path = valid::test_data_dir() + "/trace_golden.json";
  if (std::getenv("CIRRUS_UPDATE_GOLDEN") != nullptr) {
    valid::write_text_file(path, json);
    GTEST_SKIP() << "golden regenerated at " << path;
  }
  EXPECT_EQ(json, valid::read_text_file(path))
      << "trace JSON schema changed; rerun with CIRRUS_UPDATE_GOLDEN=1 to regenerate";
}

TEST(TraceJson, ForRankIndexSurvivesMutation) {
  obs::SpanSet t;
  for (int i = 0; i < 6; ++i) {
    obs::SpanRecorder(&t, i % 2)
        .interval(sim::from_micros(i), sim::from_micros(i + 1), obs::kComputeCategory);
  }
  EXPECT_EQ(t.for_track(0).size(), 3U);
  EXPECT_EQ(t.for_track(1).size(), 3U);
  EXPECT_TRUE(t.for_track(7).empty());
  EXPECT_TRUE(t.for_track(-1).empty());
  // Appending after a query is seen by the next one.
  obs::SpanRecorder(&t, 1).interval(sim::from_micros(10), sim::from_micros(11),
                                    obs::kComputeCategory);
  const auto r1 = t.for_track(1);
  ASSERT_EQ(r1.size(), 4U);
  EXPECT_EQ(r1.back().begin, sim::from_micros(10));
}

TEST(TraceJson, RealJobTraceParsesAndCarriesFlows) {
  mpi::JobConfig cfg;
  cfg.platform = plat::by_name("ec2");
  cfg.np = 4;
  cfg.enable_trace = true;
  cfg.telemetry.enabled = true;
  cfg.telemetry.sample_dt_s = 0.005;
  const auto r = mpi::run_job(cfg, [](mpi::RankEnv& env) {
    auto& comm = env.world();
    std::vector<double> buf(2048, env.rank());
    env.compute(0.01);
    const int right = (comm.rank() + 1) % comm.size();
    const int left = (comm.rank() - 1 + comm.size()) % comm.size();
    comm.sendrecv(right, 0, buf.data(), buf.size(), left, 0, buf.data(), buf.size());
  });
  ASSERT_NE(r.trace, nullptr);
  ASSERT_NE(r.telemetry, nullptr);
  EXPECT_FALSE(r.trace->flows().empty()) << "matched sends must record flow events";

  const std::string json = obs::enriched_chrome_json(r.trace.get(), &r.telemetry->sampler);
  std::string error;
  Value doc;
  ASSERT_TRUE(obs::jsonlite::parse(json, doc, &error)) << error;
  EXPECT_FALSE(events_of_phase(doc, "s").empty());
  EXPECT_FALSE(events_of_phase(doc, "f").empty());
  EXPECT_FALSE(events_of_phase(doc, "C").empty());
  // Without counter tracks the export stays valid too.
  EXPECT_TRUE(obs::jsonlite::validate(obs::enriched_chrome_json(r.trace.get(), nullptr), &error))
      << error;
}

TEST(TraceJson, TimesExportAtFullPrecision) {
  // Every row family at 123.456789012 s: 6 significant digits would round
  // its microsecond timestamp to 1.23457e+08, i.e. to 1 ms.
  const sim::SimTime at = sim::from_seconds(123.456789012);
  const sim::SimTime dur = sim::from_seconds(0.000987654321);
  obs::SpanSet t;
  obs::SpanRecorder rank0(&t, 0);
  obs::SpanRecorder rank1(&t, 1);
  rank0.interval(at, at + dur, obs::kComputeCategory);
  rank1.flow(0, at, at + dur, 8);
  rank1.instant(at, "marker");
  rank1.record(at, at + dur, "storage.service", "nfs");
  const std::string json = obs::enriched_chrome_json(&t, nullptr);

  Value doc;
  std::string error;
  ASSERT_TRUE(obs::jsonlite::parse(json, doc, &error)) << error;
  auto ns = [](const Value* v) { return v->number * 1e3; };  // us -> ns
  int checked = 0;
  for (const auto& ev : doc.array) {
    if (ev.find("ph")->str == "M") continue;
    const double ts = ns(ev.find("ts"));
    const double want = static_cast<double>(ev.find("ph")->str == "f" ? at + dur : at);
    EXPECT_LE(std::abs(ts - want), 1.0) << "ts of " << ev.find("ph")->str << " row";
    if (const Value* d = ev.find("dur"); d != nullptr) {
      EXPECT_LE(std::abs(ns(d) - static_cast<double>(dur)), 1.0) << "dur";
    }
    ++checked;
  }
  EXPECT_EQ(checked, 5);  // interval, flow start + finish, instant, causal span
}

}  // namespace
