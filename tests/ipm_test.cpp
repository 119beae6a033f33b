// Tests for the IPM-style profiler: section attribution, %comm, imbalance,
// histograms, and integration with minimpi jobs.
#include "ipm/ipm.hpp"

#include <gtest/gtest.h>

#include "mpi/minimpi.hpp"
#include "obs/span.hpp"
#include "obs/trace_export.hpp"

namespace ipm = cirrus::ipm;
namespace mpi = cirrus::mpi;
namespace obs = cirrus::obs;
namespace plat = cirrus::plat;
namespace sim = cirrus::sim;

TEST(IpmRecorder, SectionAttributionFollowsInnermostRegion) {
  ipm::RankRecorder rec(0);
  rec.add_compute(sim::from_seconds(1.0));  // (root)
  {
    rec.push_section("solve");
    rec.add_compute(sim::from_seconds(2.0));
    {
      rec.push_section("halo");
      rec.add_mpi(ipm::CallKind::Sendrecv, 1024, sim::from_seconds(0.5), 0.0);
      rec.pop_section();
    }
    rec.add_compute(sim::from_seconds(3.0));
    rec.pop_section();
  }
  rec.finish(sim::from_seconds(6.5));
  EXPECT_DOUBLE_EQ(sim::to_seconds(rec.section("solve").comp), 5.0);
  EXPECT_DOUBLE_EQ(sim::to_seconds(rec.section("halo").comm()), 0.5);
  EXPECT_DOUBLE_EQ(sim::to_seconds(rec.section("(root)").comp), 1.0);
  EXPECT_DOUBLE_EQ(sim::to_seconds(rec.totals().comp), 6.0);
}

TEST(IpmRecorder, ReenteringSectionAccumulates) {
  ipm::RankRecorder rec(0);
  for (int i = 0; i < 3; ++i) {
    rec.push_section("step");
    rec.add_compute(sim::from_seconds(1.0));
    rec.pop_section();
  }
  EXPECT_DOUBLE_EQ(sim::to_seconds(rec.section("step").comp), 3.0);
}

TEST(IpmRecorder, UserSectionNamedRootPushedFirstIsTheRootSection) {
  // A user section called "(root)" that is entered before any untagged time
  // becomes section 0, and untagged time then lands in it: no second
  // "(root)" is inserted in front.
  ipm::RankRecorder rec(0);
  rec.push_section("(root)");
  rec.add_compute(sim::from_seconds(1.0));
  rec.pop_section();
  rec.push_section("solve");
  rec.add_compute(sim::from_seconds(2.0));
  rec.pop_section();
  rec.add_compute(sim::from_seconds(4.0));
  rec.push_section("(root)");
  rec.add_compute(sim::from_seconds(8.0));
  rec.pop_section();
  EXPECT_EQ(rec.section_names(), (std::vector<std::string>{"(root)", "solve"}));
  EXPECT_DOUBLE_EQ(sim::to_seconds(rec.section("(root)").comp), 13.0);
  EXPECT_DOUBLE_EQ(sim::to_seconds(rec.section("solve").comp), 2.0);
}

TEST(IpmRecorder, RootSectionGoesInFrontOfEarlierUserSections) {
  ipm::RankRecorder rec(0);
  rec.push_section("solve");
  rec.add_compute(sim::from_seconds(2.0));
  rec.pop_section();
  rec.add_compute(sim::from_seconds(1.0));
  rec.add_compute(sim::from_seconds(1.0));
  rec.push_section("solve");
  rec.add_compute(sim::from_seconds(4.0));
  rec.pop_section();
  EXPECT_EQ(rec.section_names(), (std::vector<std::string>{"(root)", "solve"}));
  EXPECT_DOUBLE_EQ(sim::to_seconds(rec.section("(root)").comp), 2.0);
  EXPECT_DOUBLE_EQ(sim::to_seconds(rec.section("solve").comp), 6.0);
}

TEST(IpmRecorder, SysUserSplit) {
  ipm::RankRecorder rec(0);
  rec.add_mpi(ipm::CallKind::Send, 100, sim::from_seconds(1.0), 0.8);
  EXPECT_DOUBLE_EQ(sim::to_seconds(rec.totals().comm_sys), 0.8);
  EXPECT_DOUBLE_EQ(sim::to_seconds(rec.totals().comm_user), 0.2);
}

TEST(IpmRecorder, HistogramBucketsByLog2Size) {
  EXPECT_EQ(ipm::size_bucket(0), 0);
  EXPECT_EQ(ipm::size_bucket(1), 0);
  EXPECT_EQ(ipm::size_bucket(2), 1);
  EXPECT_EQ(ipm::size_bucket(1023), 9);
  EXPECT_EQ(ipm::size_bucket(1024), 10);
  EXPECT_EQ(ipm::size_bucket(1 << 20), 20);
  ipm::RankRecorder rec(0);
  rec.add_mpi(ipm::CallKind::Allreduce, 4, sim::from_seconds(0.1), 0);
  rec.add_mpi(ipm::CallKind::Allreduce, 4, sim::from_seconds(0.2), 0);
  rec.add_mpi(ipm::CallKind::Allreduce, 4096, sim::from_seconds(0.3), 0);
  EXPECT_EQ(rec.histogram(ipm::CallKind::Allreduce, 2).count, 2u);
  EXPECT_EQ(rec.histogram(ipm::CallKind::Allreduce, 12).count, 1u);
  EXPECT_EQ(rec.histogram(ipm::CallKind::Allreduce, 12).bytes, 4096u);
}

TEST(IpmRecorder, RegionRaii) {
  ipm::RankRecorder rec(0);
  {
    ipm::Region r(rec, "outer");
    rec.add_compute(100);
  }
  rec.add_compute(50);
  EXPECT_EQ(rec.section("outer").comp, 100);
}

TEST(JobReport, CommPctAndImbalance) {
  std::vector<ipm::RankRecorder> recs;
  for (int r = 0; r < 2; ++r) recs.emplace_back(r);
  // Rank 0: 8 s comp + 2 s comm; rank 1: 6 s comp + 4 s comm; wall 10 s.
  recs[0].add_compute(sim::from_seconds(8));
  recs[0].add_mpi(ipm::CallKind::Recv, 8, sim::from_seconds(2), 0.5);
  recs[1].add_compute(sim::from_seconds(6));
  recs[1].add_mpi(ipm::CallKind::Send, 8, sim::from_seconds(4), 0.5);
  recs[0].finish(sim::from_seconds(10));
  recs[1].finish(sim::from_seconds(10));
  ipm::JobReport rep(std::move(recs));
  EXPECT_DOUBLE_EQ(rep.wall_seconds(), 10.0);
  EXPECT_DOUBLE_EQ(rep.comm_pct(), 100.0 * 6 / 20);
  // mean comp 7, max 8 -> (8-7)/10 = 10%
  EXPECT_DOUBLE_EQ(rep.imbalance_pct(), 10.0);
  EXPECT_DOUBLE_EQ(rep.comp_seconds(), 7.0);
  EXPECT_DOUBLE_EQ(rep.comm_seconds(), 3.0);
}

TEST(JobReport, RankBreakdownRows) {
  std::vector<ipm::RankRecorder> recs;
  recs.emplace_back(0);
  recs[0].push_section("ATM_STEP");
  recs[0].add_compute(sim::from_seconds(3));
  recs[0].add_mpi(ipm::CallKind::Allreduce, 4, sim::from_seconds(1), 0.9);
  recs[0].pop_section();
  recs[0].finish(sim::from_seconds(4));
  ipm::JobReport rep(std::move(recs));
  const auto rows = rep.rank_breakdown("ATM_STEP");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].comp_s, 3.0);
  EXPECT_NEAR(rows[0].comm_sys_s, 0.9, 1e-9);
  EXPECT_NEAR(rows[0].comm_user_s, 0.1, 1e-9);
}

TEST(JobReport, TextSummaryMentionsSections) {
  std::vector<ipm::RankRecorder> recs;
  recs.emplace_back(0);
  recs[0].push_section("KSp");
  recs[0].add_compute(sim::from_seconds(1));
  recs[0].pop_section();
  recs[0].finish(sim::from_seconds(1));
  ipm::JobReport rep(std::move(recs));
  const auto text = rep.text_summary("chaste");
  EXPECT_NE(text.find("KSp"), std::string::npos);
  EXPECT_NE(text.find("chaste"), std::string::npos);
}

TEST(JobReport, CallTableListsUsedCallsOnly) {
  std::vector<ipm::RankRecorder> recs;
  recs.emplace_back(0);
  recs[0].add_mpi(ipm::CallKind::Allreduce, 8, sim::from_seconds(1.5), 0);
  recs[0].add_mpi(ipm::CallKind::Send, 100, sim::from_seconds(0.5), 0);
  recs[0].finish(sim::from_seconds(2));
  ipm::JobReport rep(std::move(recs));
  const auto table = rep.call_table_str();
  EXPECT_NE(table.find("MPI_Allreduce"), std::string::npos);
  EXPECT_NE(table.find("MPI_Send"), std::string::npos);
  EXPECT_EQ(table.find("MPI_Alltoall"), std::string::npos);  // never called
  EXPECT_NE(table.find("75.0"), std::string::npos);          // allreduce share
}

TEST(JobReport, RankBreakdownCsvRoundTrips) {
  std::vector<ipm::RankRecorder> recs;
  for (int r = 0; r < 2; ++r) {
    recs.emplace_back(r);
    recs[static_cast<std::size_t>(r)].add_compute(sim::from_seconds(r + 1));
    recs[static_cast<std::size_t>(r)].finish(sim::from_seconds(2));
  }
  ipm::JobReport rep(std::move(recs));
  const auto csv = rep.rank_breakdown_csv("");
  EXPECT_NE(csv.find("rank,comp_s"), std::string::npos);
  EXPECT_NE(csv.find("0,1,"), std::string::npos);
  EXPECT_NE(csv.find("1,2,"), std::string::npos);
}

// Integration: a real simulated job produces sensible IPM numbers.
TEST(IpmIntegration, CommBoundJobShowsHighCommPct) {
  mpi::JobConfig c;
  c.platform = plat::dcc();
  c.np = 16;  // two GigE nodes
  c.name = "pingpong";
  auto r = mpi::run_job(c, [](mpi::RankEnv& env) {
    auto& comm = env.world();
    double x = 1;
    for (int i = 0; i < 200; ++i) x = comm.allreduce_one(x, mpi::Op::Sum);
    env.compute(0.001);
  });
  EXPECT_GT(r.ipm.comm_pct(), 80.0);  // latency-bound collectives dominate
}

TEST(IpmIntegration, ComputeBoundJobShowsLowCommPct) {
  mpi::JobConfig c;
  c.platform = plat::vayu();
  c.np = 8;
  c.name = "compute";
  auto r = mpi::run_job(c, [](mpi::RankEnv& env) {
    env.compute(1.0);
    env.world().barrier();
  });
  EXPECT_LT(r.ipm.comm_pct(), 2.0);
}

TEST(IpmIntegration, DccCommIsMostlySystemTime) {
  mpi::JobConfig c;
  c.platform = plat::dcc();
  c.np = 16;
  c.name = "systime";
  auto r = mpi::run_job(c, [](mpi::RankEnv& env) {
    auto& comm = env.world();
    std::vector<double> buf(1024, 1.0);
    for (int i = 0; i < 50; ++i) {
      const int other = (env.rank() + 8) % 16;  // always inter-node
      comm.sendrecv(other, i, buf.data(), buf.size(), other, i, buf.data(), buf.size());
    }
  });
  const auto rows = r.ipm.rank_breakdown("");
  double user = 0, sys = 0;
  for (const auto& row : rows) {
    user += row.comm_user_s;
    sys += row.comm_sys_s;
  }
  EXPECT_GT(sys, 2 * user);  // Fig 7: DCC comm time is primarily system time
}

TEST(Trace, RecordsComputeMpiAndIoSpans) {
  mpi::JobConfig c;
  c.platform = plat::vayu();
  c.np = 2;
  c.enable_trace = true;
  c.name = "traced";
  auto r = mpi::run_job(c, [](mpi::RankEnv& env) {
    env.compute(0.01);
    env.io_read(1 << 20);
    double x = env.world().allreduce_one(1.0, mpi::Op::Sum);
    (void)x;
  });
  ASSERT_NE(r.trace, nullptr);
  int comp = 0, io = 0, mpi_ev = 0;
  for (const auto& ev : r.trace->spans()) {
    if (ev.kind != obs::SpanKind::Interval) continue;
    ASSERT_LE(ev.begin, ev.end);
    ASSERT_TRUE(ev.track == 0 || ev.track == 1);
    if (ev.category == obs::kComputeCategory) {
      ++comp;
    } else if (ev.category == obs::kIoCategory) {
      ++io;
    } else if (obs::call_of(ev.category) != ipm::CallKind::kCount) {
      ++mpi_ev;
    }
  }
  EXPECT_EQ(comp, 2);
  EXPECT_EQ(io, 2);
  EXPECT_EQ(mpi_ev, 2);  // one Allreduce span per rank
}

TEST(Trace, DisabledByDefault) {
  mpi::JobConfig c;
  c.platform = plat::vayu();
  c.np = 1;
  c.name = "untraced";
  auto r = mpi::run_job(c, [](mpi::RankEnv& env) { env.compute(0.001); });
  EXPECT_EQ(r.trace, nullptr);
}

TEST(Trace, ChromeJsonIsWellFormedEnough) {
  obs::SpanSet t;
  obs::SpanRecorder(&t, 3).interval(cirrus::sim::from_seconds(1.0),
                                    cirrus::sim::from_seconds(1.5),
                                    obs::mpi_category(ipm::CallKind::Allreduce), 8);
  const auto json = obs::enriched_chrome_json(&t, nullptr);
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"name\":\"MPI_Allreduce\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":500000"), std::string::npos);  // 0.5 s in us
  EXPECT_EQ(json[json.size() - 2], ']');
}

TEST(Trace, ForRankFilters) {
  obs::SpanSet t;
  for (int r = 0; r < 3; ++r) {
    obs::SpanRecorder(&t, r).interval(0, 1, obs::kComputeCategory);
  }
  EXPECT_EQ(t.for_track(1).size(), 1u);
  EXPECT_EQ(t.for_track(7).size(), 0u);
  EXPECT_EQ(t.size(), 3u);
}

TEST(IpmIntegration, IoTimeIsBooked) {
  mpi::JobConfig c;
  c.platform = plat::dcc();
  c.np = 1;
  c.name = "io";
  auto r = mpi::run_job(c, [](mpi::RankEnv& env) {
    env.io_read(45'000'000, true);  // 1 virtual second at 45 MB/s
  });
  EXPECT_NEAR(r.ipm.io_seconds(), 1.0, 0.1);
}
