// Tests for the cloud substrates: provisioning, spot market, ARRIVE-F
// prediction and the cloud-bursting batch scheduler.
#include "cloud/cloud.hpp"
#include "cloud/packaging.hpp"

#include <gtest/gtest.h>

#include "apps/metum/metum.hpp"
#include "npb/npb.hpp"

#include <memory>

namespace cloud = cirrus::cloud;
namespace plat = cirrus::plat;
namespace npb = cirrus::npb;

// ----------------------------------------------------------- provisioning
TEST(Provisioner, BuildsThePapersEc2Cluster) {
  // n cc1.4xlarge instances in one placement group: plat::ec2() nodes,
  // billed at the on-demand $1.60 per instance-hour.
  for (const int n : {1, 4, 9}) {
    cloud::Provisioner prov(7);
    const auto c = prov.provision(n);
    const auto want = plat::ec2();
    EXPECT_EQ(c.platform.nodes, n);
    EXPECT_EQ(c.platform.cores_per_node, want.cores_per_node);
    EXPECT_EQ(c.platform.hw_threads_per_node, want.hw_threads_per_node);
    EXPECT_EQ(c.platform.mem_per_node_GB, want.mem_per_node_GB);
    EXPECT_EQ(c.platform.nic.bandwidth_Bps, want.nic.bandwidth_Bps);
    EXPECT_EQ(c.platform.nic.latency_us, want.nic.latency_us);
    EXPECT_EQ(c.platform.nic.jitter_prob, want.nic.jitter_prob);
    EXPECT_EQ(c.platform.name, "cc1.4xlarge-x" + std::to_string(n));
    EXPECT_DOUBLE_EQ(c.hourly_usd, 1.60 * n);
    EXPECT_GT(c.ready_after_s, 10.0);  // instances take time to boot
    EXPECT_LT(c.ready_after_s, 1200.0);
  }
}

TEST(Provisioner, DeterministicPerSeed) {
  const auto a = cloud::Provisioner(3).provision(8);
  const auto b = cloud::Provisioner(3).provision(8);
  EXPECT_DOUBLE_EQ(a.ready_after_s, b.ready_after_s);
}

TEST(Provisioner, ZeroInstancesRejected) {
  cloud::Provisioner prov(1);
  EXPECT_THROW(prov.provision(0), std::invalid_argument);
}

// ------------------------------------------------------------ spot market
TEST(SpotMarket, PricesStayInBand) {
  cloud::SpotMarket m(11);
  for (double t = 0; t < 7 * 86400; t += 1800) {
    const double p = m.price_at(t);
    EXPECT_GE(p, 0.06 - 1e-12);
    EXPECT_LE(p, 1.60 + 1e-12);
  }
}

TEST(SpotMarket, MeanRevertsToConfiguredMean) {
  cloud::SpotMarket m(13);
  double sum = 0;
  int n = 0;
  for (double t = 0; t < 30 * 86400; t += 900) {
    sum += m.price_at(t);
    ++n;
  }
  EXPECT_NEAR(sum / n, 0.60, 0.12);
}

TEST(SpotMarket, HighBidAvoidsInterruption) {
  cloud::SpotMarket m(17);
  EXPECT_LT(m.next_interruption(0, 1.60, 86400), 0);  // bid at on-demand: safe
}

TEST(SpotMarket, LowBidGetsInterrupted) {
  cloud::SpotMarket m(17);
  const double t = m.next_interruption(0, 0.30, 30 * 86400);
  EXPECT_GE(t, 0);  // well below the mean: interruption is near-certain
}

TEST(SpotMarket, CostIntegratesPriceOverTime) {
  cloud::SpotMarket m(19);
  const double c1 = m.cost(0, 3600, 1);
  EXPECT_NEAR(c1, 0.60, 0.35);  // ~1 instance-hour near the mean price
  EXPECT_NEAR(m.cost(0, 3600, 4), 4 * c1, 1e-9);
}

TEST(SpotRun, HighBidRunsUninterrupted) {
  cloud::SpotMarket m(23);
  const auto r = cloud::run_on_spot(m, 0, 3600, /*bid=*/1.60, 900, 2, 1.60);
  EXPECT_EQ(r.interruptions, 0);
  EXPECT_NEAR(r.finish_s, 3600, 1e-9);
  EXPECT_LT(r.cost_usd, 1.60 * 2);  // spot is cheaper than on-demand
}

TEST(SpotRun, LowBidGetsInterruptedButFinishes) {
  cloud::SpotMarket m(23);
  const auto r = cloud::run_on_spot(m, 0, 4 * 3600, /*bid=*/0.5, 600, 2, 1.60);
  EXPECT_GT(r.interruptions, 0);
  EXPECT_GT(r.finish_s, 4 * 3600);  // interruptions stretch the makespan
  EXPECT_GT(r.cost_usd, 0);
}

TEST(SpotRun, TighterCheckpointsLoseLessWork) {
  const auto coarse = cloud::run_on_spot(*std::make_unique<cloud::SpotMarket>(29),
                                         0, 6 * 3600, 0.5, 1800, 1, 1.60);
  const auto fine = cloud::run_on_spot(*std::make_unique<cloud::SpotMarket>(29),
                                       0, 6 * 3600, 0.5, 300, 1, 1.60);
  EXPECT_LE(fine.finish_s, coarse.finish_s);
}

TEST(SpotMarket, NextAvailableFindsCheapWindow) {
  cloud::SpotMarket m(31);
  const double t = m.next_available(0, 0.60, 7 * 86400);
  EXPECT_GE(t, 0);
  EXPECT_LE(m.price_at(t), 0.60);
}

TEST(SpotMarket, NextInterruptionDeterministicPerSeed) {
  // The fault layer replays interruption times into FaultSchedules: two
  // markets with the same seed must yield the identical sequence.
  cloud::SpotMarket a(23);
  cloud::SpotMarket b(23);
  double ta = 0;
  double tb = 0;
  for (int i = 0; i < 8 && ta >= 0; ++i) {
    ta = a.next_interruption(ta + 60, 0.55, 30 * 86400);
    tb = b.next_interruption(tb + 60, 0.55, 30 * 86400);
    EXPECT_DOUBLE_EQ(ta, tb);
  }
}

TEST(SpotMarket, QueryOrderDoesNotPerturbPrices) {
  // Prices are a pure function of (seed, t): probing one market heavily must
  // not shift it relative to an untouched twin.
  cloud::SpotMarket a(37);
  cloud::SpotMarket b(37);
  (void)a.next_interruption(0, 0.5, 7 * 86400);
  (void)a.next_available(3 * 86400, 0.5, 7 * 86400);
  EXPECT_DOUBLE_EQ(a.price_at(5 * 86400), b.price_at(5 * 86400));
}

TEST(SpotRun, AnalyticAccountingFieldsFilled) {
  // The analytic path must report the same accounting fields the simulated
  // fault::run_on_spot path does, so ext4 can print them side by side.
  cloud::SpotMarket m(23);
  const auto r = cloud::run_on_spot(m, 0, 4 * 3600, /*bid=*/0.5, 600, 2, 1.60);
  EXPECT_EQ(r.attempts, r.interruptions + 1);
  EXPECT_GE(r.lost_work_s, 0.0);
  EXPECT_LE(r.lost_work_s, 600.0 * r.interruptions + 1e-9);  // ckpt bounds it
  EXPECT_FALSE(r.finished_on_demand);
  EXPECT_NEAR(r.on_demand_s, 0.0, 1e-12);
}

// ----------------------------------------------------------------- ARRIVE-F
TEST(ArriveF, PredictsDccToVayuSpeedupForComputeBoundJob) {
  // EP is compute bound: the prediction should be ~ the clock ratio.
  auto prof = npb::run_benchmark("EP", npb::Class::A, plat::dcc(), 8, /*execute=*/false);
  const auto pred = cloud::predict_runtime(prof.ipm, plat::dcc(), plat::vayu(), 8, -1, -1,
                                           npb::benchmark("EP").traits);
  const double actual =
      npb::run_benchmark("EP", npb::Class::A, plat::vayu(), 8, false).elapsed_seconds;
  EXPECT_NEAR(pred.seconds, actual, 0.25 * actual);
}

TEST(ArriveF, PredictionErrorBoundedForCommBoundJob) {
  // Alltoall-dominated IS moving to the half-duplex DCC vSwitch is the
  // hardest case: the per-message repricing cannot see queueing effects, so
  // the bound is loose — but the prediction must still be the right order
  // of magnitude and in the right direction (slower than on Vayu).
  auto prof = npb::run_benchmark("IS", npb::Class::A, plat::vayu(), 16, /*execute=*/false);
  const auto pred = cloud::predict_runtime(prof.ipm, plat::vayu(), plat::dcc(), 16, -1, -1,
                                           npb::benchmark("IS").traits);
  const double on_vayu =
      npb::run_benchmark("IS", npb::Class::A, plat::vayu(), 16, false).elapsed_seconds;
  const double actual =
      npb::run_benchmark("IS", npb::Class::A, plat::dcc(), 16, false).elapsed_seconds;
  EXPECT_GT(pred.seconds, on_vayu);            // predicts a slowdown
  EXPECT_GT(pred.seconds, 0.2 * actual);       // right order of magnitude
  EXPECT_LT(pred.seconds, 3.0 * actual);
}

TEST(ArriveF, CloudSlowdownRanksWorkloads) {
  // A communication-bound job must look like a worse cloud candidate than a
  // compute-bound one (the paper's workload-classification idea).
  auto ep = npb::run_benchmark("EP", npb::Class::A, plat::vayu(), 16, false);
  auto is = npb::run_benchmark("IS", npb::Class::A, plat::vayu(), 16, false);
  const double ep_slow = cloud::cloud_slowdown(ep.ipm, plat::vayu(), plat::ec2(), 16,
                                               npb::benchmark("EP").traits);
  const double is_slow = cloud::cloud_slowdown(is.ipm, plat::vayu(), plat::ec2(), 16,
                                               npb::benchmark("IS").traits);
  EXPECT_GT(is_slow, ep_slow);
}

// ---------------------------------------------------------------- packaging
TEST(Packaging, PaperEnvironmentPackagesAndSizes) {
  const auto env = cloud::paper_environment();
  EXPECT_TRUE(env.has("metum"));
  EXPECT_TRUE(env.has("chaste"));
  EXPECT_GT(env.total_mb(), 3000);
  const auto img = cloud::package_environment(env, plat::vayu());
  EXPECT_GT(img.size_mb, env.total_mb());  // includes the base OS
  EXPECT_GT(img.build_seconds, 30);        // rsync of /apps takes real time
}

TEST(Packaging, LoadReplacesModuleVersions) {
  cloud::Environment env;
  env.load(cloud::Module{"openmpi", "1.4.3", 250});
  env.load(cloud::Module{"openmpi", "1.6.0", 260});
  ASSERT_EQ(env.modules.size(), 1u);
  EXPECT_EQ(env.modules[0].version, "1.6.0");
}

TEST(Packaging, Sse4BuildFailsOffVayu) {
  // The paper's one reported barrier: Vayu-tuned binaries would not run
  // elsewhere until rebuilt with portable switches.
  const auto img = cloud::package_environment(cloud::paper_environment(), plat::vayu());
  EXPECT_NO_THROW(cloud::deploy_image(img, plat::vayu()));
  try {
    cloud::deploy_image(img, plat::dcc());
    FAIL() << "expected IncompatibleIsaError";
  } catch (const cloud::IncompatibleIsaError& e) {
    EXPECT_NE(std::string(e.what()).find("sse4.2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("dcc"), std::string::npos);
  }
  EXPECT_THROW(cloud::deploy_image(img, plat::ec2()), cloud::IncompatibleIsaError);
}

TEST(Packaging, PortableRebuildDeploysEverywhere) {
  const auto env = cloud::rebuild_portable(cloud::paper_environment());
  const auto img = cloud::package_environment(env, plat::vayu());
  for (const auto& target : plat::study_platforms()) {
    const auto d = cloud::deploy_image(img, target);
    EXPECT_GT(d.transfer_seconds, 10);  // multi-GB image over the WAN
    EXPECT_GT(d.boot_seconds, 30);
    EXPECT_NEAR(d.ready_seconds, d.transfer_seconds + d.boot_seconds, 1e-9);
  }
}

TEST(Packaging, TransferScalesWithIngestRate) {
  const auto img = cloud::package_environment(cloud::rebuild_portable(cloud::paper_environment()),
                                              plat::vayu());
  const auto slow = cloud::deploy_image(img, plat::ec2(), 10e6);
  const auto fast = cloud::deploy_image(img, plat::ec2(), 100e6);
  EXPECT_NEAR(slow.transfer_seconds / fast.transfer_seconds, 10.0, 1e-6);
}

// ----------------------------------------------------------------- scheduler
namespace {
std::vector<cloud::JobSpec> burst_workload() {
  std::vector<cloud::JobSpec> jobs;
  for (int i = 0; i < 12; ++i) {
    jobs.push_back(cloud::JobSpec{.name = "job" + std::to_string(i),
                                  .cores = 32,
                                  .runtime_local_s = 3600,
                                  .cloud_slowdown = 1.3,
                                  .submit_s = i * 60.0,
                                  .cloud_eligible = true});
  }
  return jobs;
}
}  // namespace

TEST(BatchScheduler, FifoWithoutBurstingQueuesUp) {
  cloud::BatchScheduler sched({.burst_wait_threshold_s = -1});
  const auto r = sched.run(burst_workload());
  ASSERT_EQ(r.jobs.size(), 12u);
  EXPECT_EQ(r.cloud_jobs, 0);
  // 2 jobs fit at a time; the last job waits ~5 rounds.
  EXPECT_GT(r.max_wait_s, 4 * 3600.0 * 0.9);
}

TEST(BatchScheduler, CloudBurstingCutsWaits) {
  cloud::BatchScheduler local({.burst_wait_threshold_s = -1});
  cloud::BatchScheduler burst({.burst_wait_threshold_s = 1800});
  const auto r_local = local.run(burst_workload());
  const auto r_burst = burst.run(burst_workload());
  EXPECT_LT(r_burst.mean_wait_s, 0.5 * r_local.mean_wait_s);
  EXPECT_GT(r_burst.cloud_jobs, 0);
  EXPECT_GT(r_burst.cloud_cost_usd, 0);
  EXPECT_LT(r_burst.makespan_s, r_local.makespan_s);
}

TEST(BatchScheduler, IneligibleJobsStayLocal) {
  auto jobs = burst_workload();
  for (auto& j : jobs) j.cloud_eligible = false;
  cloud::BatchScheduler burst({.burst_wait_threshold_s = 1800});
  const auto r = burst.run(jobs);
  EXPECT_EQ(r.cloud_jobs, 0);
}

TEST(BatchScheduler, HighSlowdownJobsStayLocal) {
  auto jobs = burst_workload();
  for (auto& j : jobs) j.cloud_slowdown = 5.0;  // comm-bound: bad candidates
  cloud::BatchScheduler burst({.burst_wait_threshold_s = 1800});
  const auto r = burst.run(jobs);
  EXPECT_EQ(r.cloud_jobs, 0);
}

TEST(BatchScheduler, HighPriorityArrivalSuspendsRunningJob) {
  // The ANUPBS suspend-resume scheme: an urgent job preempts a running one
  // and the victim resumes afterwards, finishing late but intact.
  std::vector<cloud::JobSpec> jobs;
  jobs.push_back(cloud::JobSpec{.name = "long-low", .cores = 64, .runtime_local_s = 7200,
                                .cloud_slowdown = 9, .submit_s = 0, .cloud_eligible = false,
                                .priority = 0});
  jobs.push_back(cloud::JobSpec{.name = "urgent", .cores = 64, .runtime_local_s = 600,
                                .cloud_slowdown = 9, .submit_s = 600, .cloud_eligible = false,
                                .priority = 10});
  cloud::BatchScheduler sched({.burst_wait_threshold_s = -1});
  const auto r = sched.run(jobs);
  ASSERT_EQ(r.jobs.size(), 2u);
  const auto& urgent = r.jobs[0].name == "urgent" ? r.jobs[0] : r.jobs[1];
  const auto& low = r.jobs[0].name == "long-low" ? r.jobs[0] : r.jobs[1];
  EXPECT_NEAR(urgent.start_s, 600, 1e-6);     // ran immediately on arrival
  EXPECT_NEAR(urgent.finish_s, 1200, 1e-6);
  EXPECT_EQ(low.suspensions, 1);
  EXPECT_NEAR(low.finish_s, 7200 + 600, 1e-6);  // paused for the urgent job
}

TEST(BatchScheduler, SuspendResumeDisabledQueuesUrgentJob) {
  std::vector<cloud::JobSpec> jobs;
  jobs.push_back(cloud::JobSpec{.name = "long-low", .cores = 64, .runtime_local_s = 7200,
                                .cloud_slowdown = 9, .submit_s = 0, .cloud_eligible = false,
                                .priority = 0});
  jobs.push_back(cloud::JobSpec{.name = "urgent", .cores = 64, .runtime_local_s = 600,
                                .cloud_slowdown = 9, .submit_s = 600, .cloud_eligible = false,
                                .priority = 10});
  cloud::BatchScheduler sched({.burst_wait_threshold_s = -1, .suspend_resume = false});
  const auto r = sched.run(jobs);
  const auto& urgent = r.jobs[0].name == "urgent" ? r.jobs[0] : r.jobs[1];
  EXPECT_NEAR(urgent.start_s, 7200, 1e-6);  // had to wait for the long job
}

TEST(BatchScheduler, EqualPriorityDoesNotPreempt) {
  std::vector<cloud::JobSpec> jobs;
  jobs.push_back(cloud::JobSpec{.name = "a", .cores = 64, .runtime_local_s = 3600,
                                .cloud_slowdown = 9, .submit_s = 0, .cloud_eligible = false});
  jobs.push_back(cloud::JobSpec{.name = "b", .cores = 64, .runtime_local_s = 3600,
                                .cloud_slowdown = 9, .submit_s = 10, .cloud_eligible = false});
  cloud::BatchScheduler sched({.burst_wait_threshold_s = -1});
  const auto r = sched.run(jobs);
  for (const auto& j : r.jobs) EXPECT_EQ(j.suspensions, 0);
}

TEST(BatchScheduler, PartialPreemptionTakesOnlyWhatIsNeeded) {
  // Two 32-core low-priority jobs; a 32-core urgent job suspends only one.
  std::vector<cloud::JobSpec> jobs;
  jobs.push_back(cloud::JobSpec{.name = "low1", .cores = 32, .runtime_local_s = 3600,
                                .cloud_slowdown = 9, .submit_s = 0, .cloud_eligible = false});
  jobs.push_back(cloud::JobSpec{.name = "low2", .cores = 32, .runtime_local_s = 3600,
                                .cloud_slowdown = 9, .submit_s = 0, .cloud_eligible = false});
  jobs.push_back(cloud::JobSpec{.name = "urgent", .cores = 32, .runtime_local_s = 60,
                                .cloud_slowdown = 9, .submit_s = 100, .cloud_eligible = false,
                                .priority = 5});
  cloud::BatchScheduler sched({.burst_wait_threshold_s = -1});
  const auto r = sched.run(jobs);
  int suspended = 0;
  for (const auto& j : r.jobs) suspended += j.suspensions;
  EXPECT_EQ(suspended, 1);
}

TEST(BatchScheduler, OversizedJobRejected) {
  cloud::BatchScheduler sched({});
  EXPECT_THROW(sched.run({cloud::JobSpec{.name = "huge", .cores = 128}}),
               std::invalid_argument);
}

TEST(BatchScheduler, EmptyQueueIsFine) {
  cloud::BatchScheduler sched({});
  const auto r = sched.run({});
  EXPECT_EQ(r.jobs.size(), 0u);
  EXPECT_DOUBLE_EQ(r.mean_wait_s, 0);
}
