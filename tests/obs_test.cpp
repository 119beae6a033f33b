// Tests for the telemetry subsystem: registry semantics (series identity,
// label canonicalisation, kind clashes), log2 histogram bucket edges, the
// virtual-time sampler's cadence, global counter aggregation, and the
// headline determinism property — per-job counters and process-wide totals
// are byte-identical regardless of sweep worker count.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "mpi/minimpi.hpp"
#include "obs/sampler.hpp"
#include "obs/telemetry.hpp"
#include "platform/platform.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace {

using namespace cirrus;

// ---------------------------------------------------------------------------
// Histogram bucket edges

TEST(HistBucket, Log2EdgesAreExact) {
  EXPECT_EQ(obs::hist_bucket(0), 0);
  EXPECT_EQ(obs::hist_bucket(1), 0);
  EXPECT_EQ(obs::hist_bucket(2), 1);
  EXPECT_EQ(obs::hist_bucket(3), 1);
  EXPECT_EQ(obs::hist_bucket(4), 2);
  EXPECT_EQ(obs::hist_bucket(1023), 9);
  EXPECT_EQ(obs::hist_bucket(1024), 10);
  EXPECT_EQ(obs::hist_bucket((1ULL << 62) - 1), 61);
  EXPECT_EQ(obs::hist_bucket(1ULL << 62), 62);
  EXPECT_EQ(obs::hist_bucket(~0ULL), 62);  // clamped to the last bucket
}

TEST(HistBucket, UpperEdgesAreInclusive) {
  EXPECT_EQ(obs::hist_bucket_upper(0), 1ULL);
  EXPECT_EQ(obs::hist_bucket_upper(1), 3ULL);
  EXPECT_EQ(obs::hist_bucket_upper(9), 1023ULL);
  // Every value lands in the bucket whose upper edge bounds it.
  for (const std::uint64_t v : {0ULL, 1ULL, 2ULL, 7ULL, 4096ULL, 123456789ULL}) {
    const int b = obs::hist_bucket(v);
    EXPECT_LE(v, obs::hist_bucket_upper(b)) << v;
    if (b > 0) {
      EXPECT_GT(v, obs::hist_bucket_upper(b - 1)) << v;
    }
  }
}

// ---------------------------------------------------------------------------
// Registry semantics

TEST(Registry, SameSeriesSharesOneCell) {
  obs::MetricsRegistry reg;
  auto a = reg.counter("requests", {{"node", "0"}});
  auto b = reg.counter("requests", {{"node", "0"}});
  a.inc();
  b.inc(2);
  EXPECT_EQ(a.value(), 3U);
  EXPECT_EQ(reg.size(), 1U);
}

TEST(Registry, LabelsAreCanonicalisedByKey) {
  obs::MetricsRegistry reg;
  auto a = reg.counter("x", {{"b", "2"}, {"a", "1"}});
  auto b = reg.counter("x", {{"a", "1"}, {"b", "2"}});
  a.inc();
  b.inc();
  EXPECT_EQ(a.value(), 2U);
  EXPECT_EQ(reg.size(), 1U);
  EXPECT_EQ(obs::MetricsRegistry::series_id("x", {{"a", "1"}, {"b", "2"}}),
            "x{a=\"1\",b=\"2\"}");
}

TEST(Registry, DuplicateLabelKeyThrows) {
  obs::MetricsRegistry reg;
  EXPECT_THROW(reg.counter("x", {{"k", "1"}, {"k", "2"}}), std::logic_error);
}

TEST(Registry, KindClashThrows) {
  obs::MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.histogram("x"), std::logic_error);
  EXPECT_THROW(reg.gauge("x", {}, [] { return 0.0; }), std::logic_error);
}

TEST(Registry, DisabledHandlesAreSafeNoOps) {
  obs::Counter c;
  obs::Histogram h;
  c.inc();
  c.record_max(42);
  h.observe(7);
  EXPECT_FALSE(c.enabled());
  EXPECT_FALSE(h.enabled());
  EXPECT_EQ(c.value(), 0U);
  EXPECT_EQ(h.count(), 0U);
}

TEST(Registry, FreezeGaugesSnapshotsAndDetaches) {
  obs::MetricsRegistry reg;
  double live = 1.5;
  reg.gauge("depth", {}, [&live] { return live; });
  live = 4.0;
  reg.freeze_gauges();
  live = 99.0;  // must not show up: the poll fn was dropped at freeze time
  EXPECT_NE(reg.prometheus_text().find("depth 4\n"), std::string::npos)
      << reg.prometheus_text();
}

TEST(Registry, PrometheusTextShape) {
  obs::MetricsRegistry reg;
  reg.counter("events_total").inc(7);
  reg.gauge("queue_depth", {{"node", "1"}}, [] { return 2.5; });
  auto h = reg.histogram("bytes");
  h.observe(1);     // bucket 0 (le=1)
  h.observe(3);     // bucket 1 (le=3)
  h.observe(1000);  // bucket 9 (le=1023)
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# TYPE events_total counter\n"), std::string::npos) << text;
  EXPECT_NE(text.find("events_total 7\n"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE queue_depth gauge\n"), std::string::npos) << text;
  EXPECT_NE(text.find("queue_depth{node=\"1\"} 2.5\n"), std::string::npos) << text;
  // Cumulative buckets with inclusive upper edges, +Inf, _sum and _count.
  EXPECT_NE(text.find("bytes_bucket{le=\"1\"} 1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("bytes_bucket{le=\"3\"} 2\n"), std::string::npos) << text;
  EXPECT_NE(text.find("bytes_bucket{le=\"1023\"} 3\n"), std::string::npos) << text;
  EXPECT_NE(text.find("bytes_bucket{le=\"+Inf\"} 3\n"), std::string::npos) << text;
  EXPECT_NE(text.find("bytes_sum 1004\n"), std::string::npos) << text;
  EXPECT_NE(text.find("bytes_count 3\n"), std::string::npos) << text;
}

TEST(Registry, CounterValuesIncludeHistogramTotals) {
  obs::MetricsRegistry reg;
  reg.counter("a").inc(5);
  auto h = reg.histogram("b");
  h.observe(10);
  const auto values = reg.counter_values();
  std::map<std::string, std::uint64_t> m(values.begin(), values.end());
  EXPECT_EQ(m.at("a"), 5U);
  EXPECT_EQ(m.at("b_count"), 1U);
  EXPECT_EQ(m.at("b_sum"), 10U);
}

// ---------------------------------------------------------------------------
// format_double

TEST(FormatDouble, IntegralFastPathPrintsTheSnprintfBytes) {
  // The reference: the shortest of %.15g..%.17g that reads back exactly.
  const auto snprintf_loop = [](double v) {
    char buf[64];
    for (int prec = 15; prec <= 17; ++prec) {
      std::snprintf(buf, sizeof buf, "%.*g", prec, v);
      double back = 0;
      std::sscanf(buf, "%lf", &back);
      if (back == v) break;
    }
    return std::string(buf);
  };
  for (const double v : {0.0, -0.0, 1.0, 60.0, 2592000.0, 999999999999999.0, 1e15,
                         9007199254740992.0 /* 2^53 */, 0.5, 1e-5, 1e300, -60.0,
                         -999999999999999.0}) {
    EXPECT_EQ(obs::format_double(v), snprintf_loop(v)) << v;
  }
}

// ---------------------------------------------------------------------------
// Sampler cadence

TEST(Sampler, RowsFollowVirtualTimeCadence) {
  sim::Engine engine;
  double depth = 0;
  obs::Sampler sampler;
  sampler.add_channel("depth", [&depth] { return depth; });
  // Simulated work: bump the gauge at 0.5 s and 2.5 s of virtual time.
  engine.schedule_after(sim::from_seconds(0.5), [&depth] { depth = 10; });
  engine.schedule_after(sim::from_seconds(2.5), [&depth] { depth = 20; });
  bool alive = true;
  engine.schedule_after(sim::from_seconds(3.25), [&alive] { alive = false; });
  sampler.install(engine, sim::from_seconds(1.0), [&alive] { return alive; });
  engine.run();

  // Baseline at t=0, ticks at 1 s, 2 s, 3 s, and the final row at 4 s (the
  // first tick after the job ends records once more, then stops re-arming).
  ASSERT_EQ(sampler.rows().size(), 5U);
  const std::vector<double> expect_t = {0, 1, 2, 3, 4};
  const std::vector<double> expect_v = {0, 10, 10, 20, 20};
  for (std::size_t i = 0; i < sampler.rows().size(); ++i) {
    EXPECT_DOUBLE_EQ(sim::to_seconds(sampler.rows()[i].t), expect_t[i]) << i;
    EXPECT_DOUBLE_EQ(sampler.rows()[i].values[0], expect_v[i]) << i;
  }
  const std::string csv = sampler.csv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "time_s,depth");
}

TEST(Sampler, NoChannelsOrZeroDtIsInert) {
  sim::Engine engine;
  obs::Sampler empty;
  empty.install(engine, sim::from_seconds(1.0), [] { return true; });
  obs::Sampler zero_dt;
  zero_dt.add_channel("x", [] { return 0.0; });
  zero_dt.install(engine, 0, [] { return true; });
  engine.run();  // returns immediately: neither sampler scheduled anything
  EXPECT_TRUE(empty.rows().empty());
  EXPECT_TRUE(zero_dt.rows().empty());
  EXPECT_EQ(zero_dt.csv(), "");
}

// ---------------------------------------------------------------------------
// Global counter aggregation

TEST(GlobalCounters, DiffTopOrdersAndTruncates) {
  const std::map<std::string, std::uint64_t> before = {{"a", 5}, {"b", 0}, {"c", 7}};
  const std::map<std::string, std::uint64_t> after = {
      {"a", 15}, {"b", 100}, {"c", 7}, {"d", 10}};
  const auto all = obs::GlobalCounters::diff_top(before, after, 0);
  // c's delta is zero: dropped. Ties (a and d, both +10) break by name.
  ASSERT_EQ(all.size(), 3U);
  EXPECT_EQ(all[0].first, "b");
  EXPECT_EQ(all[0].second, 100U);
  EXPECT_EQ(all[1].first, "a");
  EXPECT_EQ(all[2].first, "d");
  const auto top1 = obs::GlobalCounters::diff_top(before, after, 1);
  ASSERT_EQ(top1.size(), 1U);
  EXPECT_EQ(top1[0].first, "b");
}

// ---------------------------------------------------------------------------
// End-to-end determinism across sweep worker counts

mpi::JobConfig small_job(std::uint64_t seed) {
  mpi::JobConfig cfg;
  cfg.platform = plat::by_name("vayu");
  cfg.np = 8;
  cfg.seed = seed;
  cfg.name = "obs-determinism";
  cfg.telemetry.enabled = true;
  return cfg;
}

void ring_body(mpi::RankEnv& env) {
  auto& comm = env.world();
  std::vector<double> buf(512, env.rank());
  for (int iter = 0; iter < 10; ++iter) {
    env.compute(0.001);
    const int right = (comm.rank() + 1) % comm.size();
    const int left = (comm.rank() - 1 + comm.size()) % comm.size();
    comm.sendrecv(right, iter, buf.data(), buf.size(), left, iter, buf.data(), buf.size());
    comm.allreduce_one(static_cast<double>(iter), mpi::Op::Sum);
  }
}

TEST(Determinism, PerJobCountersMatchAcrossWorkerCounts) {
  constexpr std::size_t kJobs = 6;
  using Values = std::vector<std::pair<std::string, std::uint64_t>>;
  auto sweep = [&](int jobs) {
    return core::run_sweep<Values>(
        kJobs,
        [&](std::size_t i) {
          const auto r = mpi::run_job(small_job(/*seed=*/i + 1), ring_body);
          EXPECT_NE(r.telemetry, nullptr);
          return r.telemetry->registry.counter_values();
        },
        jobs);
  };
  const auto serial = sweep(1);
  const auto parallel = sweep(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "job " << i;
    EXPECT_FALSE(serial[i].empty());
  }
}

TEST(Determinism, GlobalTotalsMatchAcrossWorkerCounts) {
  constexpr std::size_t kJobs = 6;
  auto run_sweep_delta = [&](int jobs) {
    const auto before = obs::GlobalCounters::instance().snapshot();
    core::parallel_for(
        kJobs, [&](std::size_t i) { mpi::run_job(small_job(/*seed=*/i + 1), ring_body); },
        jobs);
    return obs::GlobalCounters::diff_top(before, obs::GlobalCounters::instance().snapshot(),
                                         0);
  };
  const auto serial = run_sweep_delta(1);
  const auto parallel = run_sweep_delta(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(Determinism, TelemetryDoesNotPerturbEventStream) {
  // The master switch must be event-neutral: same job with and without
  // telemetry executes the identical number of simulator events.
  auto cfg = small_job(1);
  cfg.telemetry.enabled = false;
  const auto off = mpi::run_job(cfg, ring_body);
  cfg.telemetry.enabled = true;
  const auto on = mpi::run_job(cfg, ring_body);
  EXPECT_EQ(off.events_processed, on.events_processed);
  EXPECT_DOUBLE_EQ(off.elapsed_seconds, on.elapsed_seconds);
  // Registry's event counter agrees with the engine's fingerprint.
  const auto values = on.telemetry->registry.counter_values();
  const std::map<std::string, std::uint64_t> m(values.begin(), values.end());
  EXPECT_EQ(m.at("sim_events_total"), on.events_processed);
}

}  // namespace
