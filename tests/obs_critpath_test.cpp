// Critical-path blame attribution tests.
//
// Synthetic traces first (hand-built DAGs with known answers), then the
// properties the ISSUE pins: fractions sum to 1 exactly (integer-nanosecond
// partition), the result is byte-identical for any `--jobs` sweep
// parallelism, and the blame splits of the
// paper's probe configurations are physically sensible (EP is compute-bound;
// CG@64 on DCC blames the GigE fabric over compute).
#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "core/request.hpp"
#include "ipm/trace.hpp"
#include "obs/critpath.hpp"
#include "obs/span.hpp"
#include "serve/service.hpp"

namespace {

using namespace cirrus;
using obs::critpath::Blame;
using obs::critpath::Category;

sim::SimTime cat(const Blame& b, Category c) {
  return b.by_category[static_cast<std::size_t>(c)];
}

ipm::TraceEvent evt(int rank, sim::SimTime b, sim::SimTime e, ipm::TraceEvent::Kind kind,
                    ipm::CallKind call = ipm::CallKind::kCount, std::size_t bytes = 0,
                    int peer = -1) {
  return ipm::TraceEvent{rank, b, e, kind, call, bytes, peer};
}

TEST(Critpath, EmptyTraceIsAllZero) {
  ipm::Trace tr;
  const Blame b = obs::critpath::attribute(tr);
  EXPECT_EQ(b.makespan, 0);
  const auto f = b.fractions();
  for (const double v : f) EXPECT_EQ(v, 0.0);
}

TEST(Critpath, SingleRankPureCompute) {
  ipm::Trace tr;
  tr.add(evt(0, 0, 100, ipm::TraceEvent::Kind::Compute));
  const Blame b = obs::critpath::attribute(tr);
  EXPECT_EQ(b.makespan, 100);
  EXPECT_EQ(b.end_rank, 0);
  EXPECT_EQ(cat(b, Category::Compute), 100);
  EXPECT_EQ(b.fractions()[static_cast<std::size_t>(Category::Compute)], 1.0);
}

TEST(Critpath, FlowJumpChargesFabricAndFollowsSender) {
  // rank 0: compute [0,60], send [60,70].  rank 1: compute [0,10],
  // recv-wait [10,80], compute [80,100].  The message flies 60 -> 80.
  // Added in (begin, rank, end) order, the order the engine records in.
  ipm::Trace tr;
  tr.add(evt(0, 0, 60, ipm::TraceEvent::Kind::Compute));
  tr.add(evt(1, 0, 10, ipm::TraceEvent::Kind::Compute));
  tr.add(evt(1, 10, 80, ipm::TraceEvent::Kind::Mpi, ipm::CallKind::Recv, 512, 0));
  tr.add(evt(0, 60, 70, ipm::TraceEvent::Kind::Mpi, ipm::CallKind::Send, 512, 1));
  tr.add(evt(1, 80, 100, ipm::TraceEvent::Kind::Compute));
  tr.add_flow(ipm::FlowEvent{0, 1, 60, 80, 512});

  const Blame b = obs::critpath::attribute(tr);
  EXPECT_EQ(b.makespan, 100);
  EXPECT_EQ(b.end_rank, 1);
  // Path: rank1 compute [80,100] + fabric [60,80] -> jump to rank 0 at 60 ->
  // rank0 compute [0,60]. No wait time: the receiver posted before the wire
  // was the bottleneck.
  EXPECT_EQ(cat(b, Category::Compute), 80);
  EXPECT_EQ(cat(b, Category::FabricSerialization), 20);
  EXPECT_EQ(cat(b, Category::MpiWait), 0);
  ASSERT_EQ(b.edges.size(), 1U);
  EXPECT_EQ(b.edges[0].src_rank, 0);
  EXPECT_EQ(b.edges[0].dst_rank, 1);
  EXPECT_EQ(b.edges[0].crossings, 1U);
  EXPECT_EQ(b.edges[0].bytes, 512U);
  EXPECT_EQ(b.edges[0].flight, 20);
}

TEST(Critpath, BarrierWithoutFlowIsLookahead) {
  ipm::Trace tr;
  tr.add(evt(0, 0, 50, ipm::TraceEvent::Kind::Mpi, ipm::CallKind::Barrier));
  tr.add(evt(0, 50, 100, ipm::TraceEvent::Kind::Compute));
  const Blame b = obs::critpath::attribute(tr);
  EXPECT_EQ(cat(b, Category::Compute), 50);
  EXPECT_EQ(cat(b, Category::BarrierLookahead), 50);
}

TEST(Critpath, StorageSpanSplitsQueueFromService) {
  ipm::Trace tr;
  tr.add(evt(0, 0, 100, ipm::TraceEvent::Kind::Io, ipm::CallKind::kCount, 4096));
  obs::SpanSet spans;
  obs::SpanRecorder rec(&spans, 0);
  rec.record(0, 40, "storage.queue", "nfs");
  rec.record(40, 100, "storage.service", "nfs");

  const Blame with = obs::critpath::attribute(tr, &spans);
  EXPECT_EQ(cat(with, Category::StorageQueue), 40);
  EXPECT_EQ(cat(with, Category::StorageService), 60);

  // Without spans the whole interval is service time.
  const Blame without = obs::critpath::attribute(tr, nullptr);
  EXPECT_EQ(cat(without, Category::StorageQueue), 0);
  EXPECT_EQ(cat(without, Category::StorageService), 100);
}

TEST(Critpath, GapsAreChargedToOther) {
  ipm::Trace tr;
  tr.add(evt(0, 0, 40, ipm::TraceEvent::Kind::Compute));
  tr.add(evt(0, 70, 100, ipm::TraceEvent::Kind::Compute));
  const Blame b = obs::critpath::attribute(tr);
  EXPECT_EQ(cat(b, Category::Compute), 70);
  EXPECT_EQ(cat(b, Category::Other), 30);
}

// ---------------------------------------------------------------------------
// Properties over real jobs.
// ---------------------------------------------------------------------------

struct ProbeResult {
  std::string blame_text;  ///< Blame::format() — the full numeric story
  std::string spans_json;  ///< serialized span tree (rank tracks only)
  Blame blame;
};

ProbeResult run_probe(const core::RunRequest& req) {
  serve::ExecOptions exec;
  exec.enable_trace = true;
  auto out = serve::execute(req, exec);
  ProbeResult r;
  r.blame = obs::critpath::attribute(*out.result.trace, out.result.spans.get());
  r.blame_text = r.blame.format();
  std::ostringstream os;
  bool first = true;
  if (out.result.spans) out.result.spans->write_chrome_events(os, first);
  r.spans_json = os.str();
  return r;
}

void expect_partition(const Blame& b, const std::string& what) {
  // Integer-nanosecond partition: categories sum to the makespan *exactly*.
  const sim::SimTime total =
      std::accumulate(b.by_category.begin(), b.by_category.end(), sim::SimTime{0});
  EXPECT_EQ(total, b.makespan) << what;
  const auto f = b.fractions();
  double sum = 0;
  for (const double v : f) {
    EXPECT_GE(v, 0.0) << what;
    EXPECT_LE(v, 1.0) << what;
    sum += v;
  }
  if (b.makespan > 0) {
    EXPECT_NEAR(sum, 1.0, 1e-9) << what;
  }
}

core::RunRequest paper_request(const std::string& workload, const std::string& bench,
                               const std::string& platform, int np) {
  core::RunRequest req;
  req.workload = workload;
  req.bench = bench;
  req.cls = "A";
  req.platform = platform;
  req.np = np;
  return req;
}

TEST(CritpathProperty, FractionsSumToOneAcrossPaperTargets) {
  const std::vector<core::RunRequest> probes = {
      paper_request("npb", "CG", "dcc", 16),  paper_request("npb", "EP", "vayu", 16),
      paper_request("npb", "FT", "ec2", 16),  paper_request("npb", "IS", "dcc", 16),
      paper_request("npb", "MG", "vayu", 16), paper_request("chaste", "", "dcc", 16),
      paper_request("metum", "", "ec2", 16),  [] {
        core::RunRequest req;
        req.workload = "wf";
        req.wf_shape = "montage";
        req.storage = "object";
        req.platform = "ec2";
        req.np = 4;
        return req;
      }()};
  for (const auto& req : probes) {
    const auto r = run_probe(req);
    expect_partition(r.blame, req.workload + "/" + req.bench + "@" + req.platform);
    EXPECT_GT(r.blame.makespan, 0);
  }
}

TEST(CritpathDeterminism, ByteIdenticalAcrossJobs1And8) {
  // The same probes driven through the sweep driver at --jobs 1 and --jobs 8:
  // every per-point blame text and span tree must be byte-identical (each
  // point is its own single-threaded deterministic simulation).
  const std::vector<core::RunRequest> probes = {paper_request("npb", "CG", "dcc", 8),
                                                paper_request("npb", "FT", "vayu", 8),
                                                paper_request("npb", "EP", "ec2", 8),
                                                paper_request("chaste", "", "dcc", 8)};
  auto sweep = [&](int jobs) {
    return core::run_sweep<ProbeResult>(
        probes.size(), [&](std::size_t i) { return run_probe(probes[i]); }, jobs);
  };
  const auto serial = sweep(1);
  const auto parallel = sweep(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].blame_text, parallel[i].blame_text) << i;
    EXPECT_EQ(serial[i].spans_json, parallel[i].spans_json) << i;
    EXPECT_FALSE(serial[i].spans_json.empty()) << i;
  }
}

TEST(CritpathQualitative, Fig4ProbesMatchThePaperStory) {
  // CG@64 on DCC: the GigE fabric out-blames compute (paper SS V-B's scaling
  // collapse). EP@64: embarrassingly parallel, compute > 0.9 everywhere.
  const auto cg = run_probe(paper_request("npb", "CG", "dcc", 64)).blame.fractions();
  EXPECT_GT(cg[static_cast<std::size_t>(Category::FabricSerialization)],
            cg[static_cast<std::size_t>(Category::Compute)]);

  const auto ep = run_probe(paper_request("npb", "EP", "dcc", 64)).blame.fractions();
  EXPECT_GE(ep[static_cast<std::size_t>(Category::Compute)], 0.9);
}

}  // namespace
