// SpanSet / SpanRecorder unit tests: the nullable-handle idiom, nesting and
// LIFO close discipline, per-track ordinal ids and the Chrome trace-event
// emission.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/jsonlite.hpp"
#include "obs/span.hpp"

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
  EXPECT_EQ(spans[0].label, "t1");
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
  const auto outer = rec.begin(sim::from_seconds(1.0), "mpi.collective", "Allreduce");
  rec.end(outer, sim::from_seconds(2.5));
  rec.record(sim::from_seconds(3.0), sim::from_seconds(3.25), "storage.queue", "nfs");

  std::ostringstream os;
  os << "[";
  bool first = true;
  set.write_chrome_events(os, first);
  os << "]";
  EXPECT_FALSE(first);

  obs::jsonlite::Value doc;
  std::string error;
  ASSERT_TRUE(obs::jsonlite::parse(os.str(), doc, &error)) << error << "\n" << os.str();
  ASSERT_EQ(doc.array.size(), 2U);
  const auto& row = doc.array[0];
  EXPECT_EQ(row.find("ph")->str, "X");
  EXPECT_EQ(row.find("cat")->str, "span");
  EXPECT_EQ(row.find("tid")->number, 1);
  EXPECT_EQ(row.find("ts")->number, 1e6);       // microseconds
  EXPECT_EQ(row.find("dur")->number, 1.5e6);
  EXPECT_EQ(row.find("name")->str, "mpi.collective Allreduce");
  ASSERT_NE(row.find("args"), nullptr);
  EXPECT_EQ(row.find("args")->find("id")->number, 1);
  EXPECT_EQ(row.find("args")->find("parent")->number, 0);
}

TEST(SpanSet, EmptySetWritesNothing) {
  SpanSet set;
  std::ostringstream os;
  bool first = true;
  set.write_chrome_events(os, first);
  EXPECT_TRUE(first);
  EXPECT_TRUE(os.str().empty());
}

}  // namespace
