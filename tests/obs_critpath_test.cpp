// Critical-path blame attribution tests, and the IPM <-> trace agreement
// over the same traced probe runs.
//
// Synthetic traces first (hand-built DAGs with known answers), then the
// properties the ISSUE pins: fractions sum to 1 exactly (integer-nanosecond
// partition), the result is byte-identical for any `--jobs` sweep
// parallelism, and the blame splits of the
// paper's probe configurations are physically sensible (EP is compute-bound;
// CG@64 on DCC blames the GigE fabric over compute).
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "core/request.hpp"
#include "ipm/ipm.hpp"
#include "obs/critpath.hpp"
#include "obs/span.hpp"
#include "obs/trace_export.hpp"
#include "serve/service.hpp"

namespace {

using namespace cirrus;
using obs::critpath::Blame;
using obs::critpath::Category;

sim::SimTime cat(const Blame& b, Category c) {
  return b.by_category[static_cast<std::size_t>(c)];
}

constexpr std::uint16_t kCompute = obs::kComputeCategory;
constexpr std::uint16_t kIo = obs::kIoCategory;

constexpr std::uint16_t mpi(ipm::CallKind call) { return obs::mpi_category(call); }

/// Appends rank `rank`'s interval [b, e] to `tr`.
void evt(obs::SpanSet& tr, int rank, sim::SimTime b, sim::SimTime e, std::uint16_t category,
         std::size_t bytes = 0, int peer = -1) {
  obs::SpanRecorder(&tr, rank).interval(b, e, category, bytes, peer);
}

TEST(Critpath, EmptyTraceIsAllZero) {
  obs::SpanSet tr;
  const Blame b = obs::critpath::attribute(tr);
  EXPECT_EQ(b.makespan, 0);
  const auto f = b.fractions();
  for (const double v : f) EXPECT_EQ(v, 0.0);
}

TEST(Critpath, SingleRankPureCompute) {
  obs::SpanSet tr;
  evt(tr, 0, 0, 100, kCompute);
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
  obs::SpanSet tr;
  evt(tr, 0, 0, 60, kCompute);
  evt(tr, 1, 0, 10, kCompute);
  evt(tr, 1, 10, 80, mpi(ipm::CallKind::Recv), 512, 0);
  evt(tr, 0, 60, 70, mpi(ipm::CallKind::Send), 512, 1);
  evt(tr, 1, 80, 100, kCompute);
  obs::SpanRecorder(&tr, 1).flow(0, 60, 80, 512);

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
  obs::SpanSet tr;
  evt(tr, 0, 0, 50, mpi(ipm::CallKind::Barrier));
  evt(tr, 0, 50, 100, kCompute);
  const Blame b = obs::critpath::attribute(tr);
  EXPECT_EQ(cat(b, Category::Compute), 50);
  EXPECT_EQ(cat(b, Category::BarrierLookahead), 50);
}

TEST(Critpath, StorageSpanSplitsQueueFromService) {
  obs::SpanSet tr;
  evt(tr, 0, 0, 100, kIo, 4096);
  obs::SpanSet with = tr;
  obs::SpanRecorder rec(&with, 0);
  rec.record(0, 40, "storage.queue", "nfs");
  rec.record(40, 100, "storage.service", "nfs");

  const Blame with_split = obs::critpath::attribute(with);
  EXPECT_EQ(cat(with_split, Category::StorageQueue), 40);
  EXPECT_EQ(cat(with_split, Category::StorageService), 60);

  // Without storage spans the whole interval is service time.
  const Blame without = obs::critpath::attribute(tr);
  EXPECT_EQ(cat(without, Category::StorageQueue), 0);
  EXPECT_EQ(cat(without, Category::StorageService), 100);
}

TEST(Critpath, GapsAreChargedToOther) {
  obs::SpanSet tr;
  evt(tr, 0, 0, 40, kCompute);
  evt(tr, 0, 70, 100, kCompute);
  const Blame b = obs::critpath::attribute(tr);
  EXPECT_EQ(cat(b, Category::Compute), 70);
  EXPECT_EQ(cat(b, Category::Other), 30);
}

// ---------------------------------------------------------------------------
// Properties over real jobs.
// ---------------------------------------------------------------------------

struct ProbeResult {
  std::string blame_text;  ///< Blame::format() — the full numeric story
  std::string trace_json;  ///< the trace's Chrome export
  Blame blame;
};

ProbeResult run_probe(const core::RunRequest& req) {
  serve::ExecOptions exec;
  exec.enable_trace = true;
  auto out = serve::execute(req, exec);
  ProbeResult r;
  r.blame = obs::critpath::attribute(*out.result.trace);
  r.blame_text = r.blame.format();
  r.trace_json = obs::enriched_chrome_json(out.result.trace.get(), nullptr);
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

core::RunRequest montage_request() {
  core::RunRequest req;
  req.workload = "wf";
  req.wf_shape = "montage";
  req.storage = "object";
  req.platform = "ec2";
  req.np = 4;
  return req;
}

TEST(CritpathProperty, FractionsSumToOneAcrossPaperTargets) {
  const std::vector<core::RunRequest> probes = {
      paper_request("npb", "CG", "dcc", 16),  paper_request("npb", "EP", "vayu", 16),
      paper_request("npb", "FT", "ec2", 16),  paper_request("npb", "IS", "dcc", 16),
      paper_request("npb", "MG", "vayu", 16), paper_request("chaste", "", "dcc", 16),
      paper_request("metum", "", "ec2", 16),  montage_request()};
  for (const auto& req : probes) {
    const auto r = run_probe(req);
    expect_partition(r.blame, req.workload + "/" + req.bench + "@" + req.platform);
    EXPECT_GT(r.blame.makespan, 0);
  }
}

// ---------------------------------------------------------------------------
// IPM <-> trace agreement. IPM books its totals from the same per-call events
// the trace records, so per rank the summed interval time of each kind equals
// the IPM total exactly (integer nanoseconds) and the MPI interval count the
// IPM call count: an interval recorded twice or dropped breaks the equality.
// Comm::split books IPM time without a trace row, so each rank's
// CallKind::Split booking is subtracted first.
// ---------------------------------------------------------------------------

void expect_trace_matches_ipm(const core::RunRequest& req) {
  const std::string what = req.workload + "/" + req.bench + "@" + req.platform;
  serve::ExecOptions exec;
  exec.enable_trace = true;
  const auto out = serve::execute(req, exec);
  ASSERT_NE(out.result.trace, nullptr) << what;

  struct Sums {
    sim::SimTime comp = 0, io = 0, mpi = 0;
    std::uint64_t mpi_calls = 0;
  };
  const auto& recorders = out.result.ipm.recorders();
  std::vector<Sums> sums(recorders.size());
  for (const obs::Span& s : out.result.trace->spans()) {
    if (s.kind != obs::SpanKind::Interval) continue;
    ASSERT_GE(s.track, 0) << what;
    ASSERT_LT(static_cast<std::size_t>(s.track), sums.size()) << what;
    Sums& r = sums[static_cast<std::size_t>(s.track)];
    if (s.category == kCompute) {
      r.comp += s.end - s.begin;
    } else if (s.category == kIo) {
      r.io += s.end - s.begin;
    } else {
      ASSERT_NE(obs::call_of(s.category), ipm::CallKind::kCount) << what;
      r.mpi += s.end - s.begin;
      ++r.mpi_calls;
    }
  }
  int mismatched = 0;
  for (std::size_t i = 0; i < recorders.size(); ++i) {
    const ipm::SectionStats& t = recorders[i].totals();
    const ipm::CallStats& split =
        recorders[i].by_call()[static_cast<std::size_t>(ipm::CallKind::Split)];
    const Sums& r = sums[i];
    EXPECT_GT(r.mpi_calls, 0U) << what << " rank " << i;
    EXPECT_EQ(r.comp, t.comp) << what << " rank " << i;
    EXPECT_EQ(r.io, t.io) << what << " rank " << i;
    EXPECT_EQ(r.mpi, t.comm() - split.time) << what << " rank " << i;
    EXPECT_EQ(r.mpi_calls, t.mpi_calls - split.count) << what << " rank " << i;
    if (r.comp != t.comp || r.io != t.io || r.mpi != t.comm() - split.time ||
        r.mpi_calls != t.mpi_calls - split.count) {
      ++mismatched;
    }
  }
  EXPECT_EQ(mismatched, 0) << what;
}

TEST(TraceIpmAgreement, ClassARunsMatchIpmPerRank) {
  for (const auto& req :
       {paper_request("npb", "CG", "dcc", 16), paper_request("npb", "FT", "ec2", 16),
        paper_request("npb", "IS", "dcc", 16), paper_request("npb", "MG", "vayu", 16),
        paper_request("chaste", "", "dcc", 16), paper_request("metum", "", "ec2", 16),
        montage_request()}) {
    expect_trace_matches_ipm(req);
  }
}

TEST(TraceIpmAgreement, MetumBooksSplitWithoutATraceRow) {
  // The one booking the trace does not carry; the agreement above subtracts it.
  serve::ExecOptions exec;
  exec.enable_trace = true;
  const auto out = serve::execute(paper_request("metum", "", "ec2", 16), exec);
  std::uint64_t splits = 0;
  for (const auto& rec : out.result.ipm.recorders()) {
    splits += rec.by_call()[static_cast<std::size_t>(ipm::CallKind::Split)].count;
  }
  EXPECT_GT(splits, 0U);
  for (const obs::Span& s : out.result.trace->spans()) {
    EXPECT_NE(obs::call_of(s.category), ipm::CallKind::Split);
  }
}

TEST(CritpathDeterminism, ByteIdenticalAcrossJobs1And8) {
  // The same probes driven through the sweep driver at --jobs 1 and --jobs 8:
  // every per-point blame text and trace export must be byte-identical (each
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
    EXPECT_EQ(serial[i].trace_json, parallel[i].trace_json) << i;
    EXPECT_NE(serial[i].trace_json, "[]\n") << i;
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
