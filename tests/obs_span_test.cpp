// SpanSet / SpanRecorder unit tests: the nullable-handle idiom, nesting and
// LIFO close discipline, per-track ordinal ids, interning, the restart merge
// and the Chrome trace-event emission.
#include <gtest/gtest.h>

#include <string>

#include "obs/jsonlite.hpp"
#include "obs/span.hpp"
#include "obs/trace_export.hpp"

namespace {

using namespace cirrus;
using obs::Span;
using obs::SpanRecorder;
using obs::SpanSet;

TEST(SpanRecorder, DisabledRecorderIsInert) {
  SpanRecorder rec;  // default-constructed: no set attached
  EXPECT_FALSE(rec.enabled());
  EXPECT_EQ(rec.begin(10, "compute"), 0U);
  rec.end(1, 20);                          // no-op, must not crash
  EXPECT_EQ(rec.record(5, 9, "io"), 0U);
  rec.interval(0, 5, obs::kComputeCategory);  // the rest are no-ops too
  rec.flow(1, 0, 5, 64);
  rec.instant(5, "marker");
}

TEST(SpanRecorder, IdsArePerTrackOrdinalsInRecordingOrder) {
  SpanSet set;
  SpanRecorder a(&set, 0);
  SpanRecorder b(&set, 7);
  EXPECT_TRUE(a.enabled());
  const auto a1 = a.record(0, 10, "x");
  const auto a2 = a.record(10, 20, "x");
  const auto b1 = b.record(5, 6, "y");
  EXPECT_EQ(a1, 1U);
  EXPECT_EQ(a2, 2U);
  EXPECT_EQ(b1, 1U);  // ids are per track, not global
}

TEST(SpanRecorder, NestingLinksParents) {
  SpanSet set;
  SpanRecorder rec(&set, 3);
  const auto outer = rec.begin(0, "wf.task", "t1");
  const auto inner = rec.begin(2, "wf.compute");
  const auto leaf = rec.record(3, 4, "storage.queue");
  rec.end(inner, 8);
  rec.end(outer, 9);

  const auto spans = set.for_track(3);
  ASSERT_EQ(spans.size(), 3U);
  EXPECT_EQ(spans[0].id, outer);
  EXPECT_EQ(spans[0].parent, 0U);  // root
  EXPECT_EQ(spans[0].begin, 0);
  EXPECT_EQ(spans[0].end, 9);
  EXPECT_EQ(set.label_name(spans[0].label), "t1");
  EXPECT_EQ(set.category_name(spans[0].category), "wf.task");
  EXPECT_EQ(spans[1].id, inner);
  EXPECT_EQ(spans[1].parent, outer);
  EXPECT_EQ(spans[2].id, leaf);
  EXPECT_EQ(spans[2].parent, inner);
  EXPECT_EQ(spans[2].end, 4);
}

TEST(SpanRecorder, OutOfOrderEndClosesChildrenAtSameInstant) {
  SpanSet set;
  SpanRecorder rec(&set, 0);
  const auto outer = rec.begin(0, "a");
  const auto inner = rec.begin(5, "b");
  rec.end(outer, 10);  // closes inner too, at t=10

  const auto spans = set.for_track(0);
  ASSERT_EQ(spans.size(), 2U);
  EXPECT_EQ(spans[0].id, outer);
  EXPECT_EQ(spans[0].end, 10);
  EXPECT_EQ(spans[1].id, inner);
  EXPECT_EQ(spans[1].end, 10);

  rec.end(inner, 99);  // already closed: ignored
  EXPECT_EQ(set.for_track(0)[1].end, 10);
  rec.end(0, 99);  // id 0 is never valid: ignored
}

TEST(SpanSet, ChromeEventsAreStrictJsonRows) {
  SpanSet set;
  SpanRecorder rec(&set, 1);
  const auto outer = rec.begin(sim::from_seconds(1.0), "wf.task", "mProject_1");
  rec.end(outer, sim::from_seconds(2.5));
  rec.record(sim::from_seconds(3.0), sim::from_seconds(3.25), "storage.queue", "nfs");

  const std::string json = obs::enriched_chrome_json(&set, nullptr);

  obs::jsonlite::Value doc;
  std::string error;
  ASSERT_TRUE(obs::jsonlite::parse(json, doc, &error)) << error << "\n" << json;
  ASSERT_EQ(doc.array.size(), 2U);
  const auto& row = doc.array[0];
  EXPECT_EQ(row.find("ph")->str, "X");
  EXPECT_EQ(row.find("cat")->str, "span");
  EXPECT_EQ(row.find("tid")->number, 1);
  EXPECT_EQ(row.find("ts")->number, 1e6);       // microseconds
  EXPECT_EQ(row.find("dur")->number, 1.5e6);
  EXPECT_EQ(row.find("name")->str, "wf.task mProject_1");
  ASSERT_NE(row.find("args"), nullptr);
  EXPECT_EQ(row.find("args")->find("id")->number, 1);
  EXPECT_EQ(row.find("args")->find("parent")->number, 0);
}

TEST(SpanSet, RecordIsFixedSizeWithMpiCallsAtFixedIds) {
  EXPECT_LE(sizeof(Span), 48U);
  SpanSet set;
  for (int k = 0; k < ipm::kNumCallKinds; ++k) {
    const auto kind = static_cast<ipm::CallKind>(k);
    EXPECT_EQ(set.category_name(obs::mpi_category(kind)), ipm::to_string(kind));
    EXPECT_EQ(obs::call_of(obs::mpi_category(kind)), kind);
  }
  EXPECT_EQ(set.category_name(obs::kComputeCategory), "compute");
  EXPECT_EQ(set.category_name(obs::kIoCategory), "io");
  EXPECT_EQ(obs::call_of(obs::kComputeCategory), ipm::CallKind::kCount);
  EXPECT_EQ(obs::call_of(obs::kIoCategory), ipm::CallKind::kCount);
  // Interning is idempotent; label 0 is the empty string.
  const auto q = set.category("storage.queue");
  EXPECT_EQ(set.category("storage.queue"), q);
  EXPECT_EQ(set.find_category("storage.queue"), q);
  EXPECT_FALSE(set.find_category("never.seen").has_value());
  EXPECT_EQ(set.label(""), 0U);
  EXPECT_EQ(set.label_name(set.label("nfs")), "nfs");
}

TEST(SpanSet, MergeShiftsTimesReinternsNamesAndContinuesIds) {
  SpanSet first;
  SpanRecorder a(&first, 0);
  a.record(0, 10, "wf.task", "t1");
  a.interval(0, 10, obs::kComputeCategory);

  SpanSet second;
  SpanRecorder b(&second, 0);
  SpanRecorder global(&second, -1);
  second.category("unused");  // shifts this set's category ids only
  const auto outer = b.begin(1, "storage.service", "object");
  b.record(2, 3, "wf.task", "t2");
  b.end(outer, 4);
  b.interval(1, 4, obs::mpi_category(ipm::CallKind::Recv), 64, 1);
  b.flow(1, 1, 3, 64);
  global.instant(2, "fault: job killed");

  SpanSet merged;
  merged.merge(first, 0);
  merged.merge(second, 100);
  ASSERT_EQ(merged.size(), 6U);
  const auto track0 = merged.for_track(0);
  ASSERT_EQ(track0.size(), 5U);
  EXPECT_EQ(track0[0].id, 1U);
  EXPECT_EQ(merged.label_name(track0[0].label), "t1");
  // The second attempt's causal ids continue after the first's.
  EXPECT_EQ(track0[2].id, 2U);
  EXPECT_EQ(track0[2].parent, 0U);
  EXPECT_EQ(track0[2].begin, 101);
  EXPECT_EQ(track0[2].end, 104);
  EXPECT_EQ(merged.category_name(track0[2].category), "storage.service");
  EXPECT_EQ(track0[3].id, 3U);
  EXPECT_EQ(track0[3].parent, 2U);
  EXPECT_EQ(merged.label_name(track0[3].label), "t2");
  EXPECT_EQ(track0[4].kind, obs::SpanKind::Interval);
  EXPECT_EQ(obs::call_of(track0[4].category), ipm::CallKind::Recv);
  EXPECT_EQ(track0[4].bytes, 64U);
  EXPECT_EQ(track0[4].peer, 1);
  ASSERT_EQ(merged.flows().size(), 1U);
  EXPECT_EQ(merged.flows()[0].send, 101);
  EXPECT_EQ(merged.flows()[0].recv, 103);
  EXPECT_EQ(merged.flows()[0].src, 1);
  EXPECT_EQ(merged.flows()[0].dst, 0);
  const auto global_track = merged.for_track(-1);
  ASSERT_EQ(global_track.size(), 1U);
  EXPECT_EQ(global_track[0].kind, obs::SpanKind::Instant);
  EXPECT_EQ(global_track[0].begin, 102);
  EXPECT_EQ(merged.label_name(global_track[0].label), "fault: job killed");
}

TEST(SpanSet, EmptySetWritesNothing) {
  SpanSet set;
  EXPECT_EQ(obs::enriched_chrome_json(&set, nullptr), "[]\n");
}

}  // namespace
