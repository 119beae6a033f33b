#include "cloud/cloud.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>

namespace cirrus::cloud {

// ---------------------------------------------------------------------------
// Provisioning.
// ---------------------------------------------------------------------------

namespace {

// On-demand price of the paper's instance (Table I: EC2 cc1.4xlarge), per
// instance-hour. It also caps the spot price and prices cloud-burst jobs.
constexpr double kOnDemandHourlyUsd = 1.60;
constexpr double kBootMedianS = 90.0;  // EC2-style boot latency (lognormal)
constexpr double kBootSigma = 0.35;

}  // namespace

Cluster Provisioner::provision(int n) {
  if (n <= 0) throw std::invalid_argument("provision: need at least one instance");
  Cluster c;
  c.platform = plat::ec2();
  c.platform.name = "cc1.4xlarge-x" + std::to_string(n);
  c.platform.nodes = n;
  c.hourly_usd = kOnDemandHourlyUsd * n;
  // Cluster readiness: the slowest instance boot (images occasionally come
  // up slowly or need a retry — the paper's "images not booting correctly").
  double slowest = 0;
  for (int i = 0; i < n; ++i) {
    double boot = rng_.lognormal_median(kBootMedianS, kBootSigma);
    if (rng_.chance(0.03)) boot += kBootMedianS * 3;  // boot retry
    slowest = std::max(slowest, boot);
  }
  c.ready_after_s = slowest;
  return c;
}

// ---------------------------------------------------------------------------
// Spot market.
// ---------------------------------------------------------------------------

namespace {

constexpr double kSpotMeanUsd = 0.60;     // long-run mean price
constexpr double kSpotReversion = 0.08;   // mean-reversion strength per step
constexpr double kSpotVolatility = 0.07;  // per-step noise
constexpr double kSpotStepS = 300.0;      // price update granularity

}  // namespace

SpotMarket::SpotMarket(std::uint64_t seed) : rng_(sim::Rng(seed).fork(0x5707)) {
  prices_.push_back(kSpotMeanUsd);
}

void SpotMarket::extend_to(double t_seconds) {
  const auto need = static_cast<std::size_t>(std::max(0.0, t_seconds / kSpotStepS)) + 2;
  while (prices_.size() < need) {
    const double p = prices_.back();
    double next = p + kSpotReversion * (kSpotMeanUsd - p) +
                  kSpotVolatility * kSpotMeanUsd * rng_.normal();
    next = std::clamp(next, 0.1 * kSpotMeanUsd, kOnDemandHourlyUsd);
    prices_.push_back(next);
  }
}

double SpotMarket::price_at(double t_seconds) {
  if (t_seconds < 0) t_seconds = 0;
  extend_to(t_seconds);
  return prices_[static_cast<std::size_t>(t_seconds / kSpotStepS)];
}

double SpotMarket::next_interruption(double t_seconds, double bid, double horizon_seconds) {
  extend_to(t_seconds + horizon_seconds);
  auto step = static_cast<std::size_t>(std::max(0.0, t_seconds) / kSpotStepS);
  const auto last = static_cast<std::size_t>((t_seconds + horizon_seconds) / kSpotStepS);
  for (; step <= last; ++step) {
    if (prices_[step] > bid) {
      return std::max(t_seconds, static_cast<double>(step) * kSpotStepS);
    }
  }
  return -1.0;
}

double SpotMarket::next_available(double t_seconds, double bid, double horizon_seconds) {
  extend_to(t_seconds + horizon_seconds);
  auto step = static_cast<std::size_t>(std::max(0.0, t_seconds) / kSpotStepS);
  const auto last = static_cast<std::size_t>((t_seconds + horizon_seconds) / kSpotStepS);
  for (; step <= last; ++step) {
    if (prices_[step] <= bid) {
      return std::max(t_seconds, static_cast<double>(step) * kSpotStepS);
    }
  }
  return -1.0;
}

double SpotMarket::cost(double t0, double t1, int instances) {
  if (t1 <= t0) return 0;
  extend_to(t1);
  double usd = 0;
  for (double t = t0; t < t1; t += kSpotStepS) {
    const double span = std::min(kSpotStepS, t1 - t);
    usd += price_at(t) * instances * span / 3600.0;
  }
  return usd;
}

SpotRun run_on_spot(SpotMarket& market, double t0, double runtime_s, double bid,
                    double checkpoint_interval_s, int instances,
                    double on_demand_hourly_usd) {
  SpotRun out;
  constexpr double kHorizon = 90.0 * 86400.0;  // give up after a quarter
  constexpr int kMaxInterruptions = 10000;     // thrash guard
  double now = t0;
  double remaining = runtime_s;
  while (remaining > 0) {
    const double start =
        out.interruptions < kMaxInterruptions ? market.next_available(now, bid, kHorizon) : -1;
    if (start < 0) {
      // Price never dips below the bid again: finish on-demand.
      out.cost_usd += on_demand_hourly_usd * instances * remaining / 3600.0;
      out.on_demand_s = remaining;
      out.finished_on_demand = true;
      now += remaining;
      remaining = 0;
      break;
    }
    now = start;
    const double interrupted = market.next_interruption(now, bid, remaining);
    if (interrupted < 0 || interrupted >= now + remaining) {
      out.cost_usd += market.cost(now, now + remaining, instances);
      now += remaining;
      remaining = 0;
    } else {
      // Progress since the last checkpoint is lost.
      const double ran = interrupted - now;
      const double kept =
          checkpoint_interval_s > 0
              ? std::floor(ran / checkpoint_interval_s) * checkpoint_interval_s
              : 0.0;
      out.cost_usd += market.cost(now, interrupted, instances);
      out.lost_work_s += ran - kept;
      remaining -= kept;
      now = interrupted;
      ++out.interruptions;
    }
  }
  out.attempts = out.interruptions + 1;
  out.finish_s = now;
  return out;
}

// ---------------------------------------------------------------------------
// ARRIVE-F prediction.
// ---------------------------------------------------------------------------

namespace {

/// Mean per-rank compute-model factor for a job geometry on a platform.
double compute_factor(const plat::Platform& p, int np, int max_rpn,
                      const plat::WorkloadTraits& traits) {
  auto quiet = p;
  quiet.compute.jitter_sigma = 0.0;
  const auto placement = plat::place_block(quiet, np, max_rpn, traits, /*seed=*/1);
  sim::Rng rng(1);
  double sum = 0;
  for (const auto& pl : placement) {
    sum += sim::to_seconds(plat::compute_time(quiet, pl, traits, 1.0, rng));
  }
  return sum / static_cast<double>(np);
}

/// Mean cost of one inter-node message of `bytes` on a platform.
double message_cost(const plat::Platform& p, double bytes) {
  const double lat =
      (p.nic.latency_us + p.nic.jitter_prob * p.nic.jitter_mean_us + p.nic.per_msg_overhead_us) *
      1e-6;
  double bw = p.nic.bandwidth_Bps;
  if (p.nic.half_duplex) bw /= 1.6;  // both directions share the port
  return lat + bytes / bw;
}

}  // namespace

Prediction predict_runtime(const ipm::JobReport& profile, const plat::Platform& src,
                           const plat::Platform& dst, int np, int src_max_rpn, int dst_max_rpn,
                           const plat::WorkloadTraits& traits) {
  Prediction out;
  // Computation: model-factor ratio.
  const double f_src = compute_factor(src, np, src_max_rpn, traits);
  const double f_dst = compute_factor(dst, np, dst_max_rpn, traits);
  out.comp_seconds = profile.comp_seconds() * (f_dst / f_src);

  // Communication: reprice the (kind x size) histogram.
  double cost_src = 0, cost_dst = 0;
  for (int k = 0; k < ipm::kNumCallKinds; ++k) {
    for (int b = 0; b < ipm::kNumSizeBuckets; ++b) {
      const auto cell = profile.histogram(static_cast<ipm::CallKind>(k), b);
      if (cell.count == 0) continue;
      const double avg_bytes =
          static_cast<double>(cell.bytes) / static_cast<double>(cell.count);
      cost_src += static_cast<double>(cell.count) * message_cost(src, avg_bytes);
      cost_dst += static_cast<double>(cell.count) * message_cost(dst, avg_bytes);
    }
  }
  // Additive repricing: synchronisation waits embedded in the measured
  // communication time carry over unchanged; only the per-message hardware
  // cost difference moves. (A multiplicative ratio would scale pipeline
  // waits of wavefront codes like LU by the latency ratio and overshoot
  // wildly.)
  out.comm_seconds = std::max(0.0, profile.comm_seconds() + (cost_dst - cost_src) /
                                       std::max(1, profile.nranks()));

  // I/O: filesystem bandwidth ratio.
  out.io_seconds = profile.io_seconds() * (src.fs.read_Bps / dst.fs.read_Bps);

  out.seconds = out.comp_seconds + out.comm_seconds + out.io_seconds;
  return out;
}

double cloud_slowdown(const ipm::JobReport& profile, const plat::Platform& src,
                      const plat::Platform& dst, int np, const plat::WorkloadTraits& traits) {
  const auto p = predict_runtime(profile, src, dst, np, -1, -1, traits);
  const double base = profile.comp_seconds() + profile.comm_seconds() + profile.io_seconds();
  return base > 0 ? p.seconds / base : 1.0;
}

// ---------------------------------------------------------------------------
// Batch scheduler.
// ---------------------------------------------------------------------------

namespace {

constexpr int kLocalCores = 64;
constexpr double kMaxBurstSlowdown = 1.8;
constexpr double kCloudBootS = 120;

}  // namespace

ScheduleResult BatchScheduler::run(std::vector<JobSpec> jobs) const {
  for (const auto& j : jobs) {
    if (j.cores > kLocalCores) {
      throw std::invalid_argument("job " + j.name + " needs more cores than the facility has");
    }
  }
  std::stable_sort(jobs.begin(), jobs.end(),
                   [](const JobSpec& a, const JobSpec& b) { return a.submit_s < b.submit_s; });

  // Live state of a job that has started locally (running or suspended).
  struct Live {
    const JobSpec* spec = nullptr;
    double remaining = 0;
    double first_start = -1;
    int suspensions = 0;
    bool running = false;
  };
  std::vector<Live> live;
  std::vector<const JobSpec*> queue;  // not yet started
  int free_cores = kLocalCores;
  double now = 0;
  double last_update = 0;
  std::size_t next = 0;

  ScheduleResult result;
  result.jobs.reserve(jobs.size());

  auto advance_running = [&](double to) {
    for (auto& l : live) {
      if (l.running) l.remaining -= to - last_update;
    }
    last_update = to;
  };
  auto complete_finished = [&]() {
    for (auto it = live.begin(); it != live.end();) {
      if (it->running && it->remaining <= 1e-9) {
        free_cores += it->spec->cores;
        result.jobs.push_back(JobOutcome{.name = it->spec->name,
                                         .start_s = it->first_start,
                                         .finish_s = now,
                                         .wait_s = it->first_start - it->spec->submit_s,
                                         .ran_on_cloud = false,
                                         .suspensions = it->suspensions});
        it = live.erase(it);
      } else {
        ++it;
      }
    }
  };
  while (next < jobs.size() || !queue.empty() || !live.empty()) {
    while (next < jobs.size() && jobs[next].submit_s <= now) {
      queue.push_back(&jobs[next]);
      ++next;
    }

    bool progress = true;
    while (progress) {
      progress = false;
      // Resume suspended jobs first (they already hold their place), highest
      // priority and earliest submit first.
      std::stable_sort(live.begin(), live.end(), [](const Live& a, const Live& b) {
        return a.spec->priority > b.spec->priority;
      });
      for (auto& l : live) {
        if (!l.running && l.spec->cores <= free_cores) {
          l.running = true;
          free_cores -= l.spec->cores;
          progress = true;
        }
      }
      if (queue.empty()) break;
      // Pick the queue job to place: highest priority, then FIFO.
      auto best = queue.begin();
      for (auto it = queue.begin(); it != queue.end(); ++it) {
        if ((*it)->priority > (*best)->priority) best = it;
      }
      const JobSpec& j = **best;
      if (j.cores <= free_cores) {
        live.push_back(Live{.spec = &j, .remaining = j.runtime_local_s,
                            .first_start = now, .suspensions = 0, .running = true});
        free_cores -= j.cores;
        queue.erase(best);
        progress = true;
        continue;
      }
      // Suspend-resume (ANUPBS): a higher-priority arrival may suspend
      // running lower-priority jobs to make room.
      if (opts_.suspend_resume) {
        int reclaimable = free_cores;
        for (const auto& l : live) {
          if (l.running && l.spec->priority < j.priority) reclaimable += l.spec->cores;
        }
        if (reclaimable >= j.cores) {
          // Suspend lowest-priority running jobs until the job fits.
          while (free_cores < j.cores) {
            Live* victim = nullptr;
            for (auto& l : live) {
              if (l.running && l.spec->priority < j.priority &&
                  (victim == nullptr || l.spec->priority < victim->spec->priority)) {
                victim = &l;
              }
            }
            victim->running = false;
            ++victim->suspensions;
            free_cores += victim->spec->cores;
          }
          live.push_back(Live{.spec = &j, .remaining = j.runtime_local_s,
                              .first_start = now, .suspensions = 0, .running = true});
          free_cores -= j.cores;
          queue.erase(best);
          progress = true;
          continue;
        }
      }
      // Cloud-burst the job if the projected wait is too long.
      if (opts_.burst_wait_threshold_s >= 0 && j.cloud_eligible &&
          j.cloud_slowdown <= kMaxBurstSlowdown) {
        // Project when enough local cores free up (running jobs only).
        std::vector<std::pair<double, int>> finishes;
        for (const auto& l : live) {
          if (l.running) finishes.emplace_back(now + l.remaining, l.spec->cores);
        }
        std::sort(finishes.begin(), finishes.end());
        int would_free = free_cores;
        double when = now;
        for (const auto& [t, cores] : finishes) {
          if (would_free >= j.cores) break;
          when = t;
          would_free += cores;
        }
        if (would_free >= j.cores && when - now > opts_.burst_wait_threshold_s) {
          const double start = now + kCloudBootS;
          const double runtime = j.runtime_local_s * j.cloud_slowdown;
          result.jobs.push_back(JobOutcome{.name = j.name,
                                           .start_s = start,
                                           .finish_s = start + runtime,
                                           .wait_s = start - j.submit_s,
                                           .ran_on_cloud = true,
                                           .suspensions = 0});
          result.cloud_cost_usd += kOnDemandHourlyUsd *
                                   std::ceil(j.cores / 8.0) *
                                   std::ceil((runtime + kCloudBootS) / 3600.0);
          ++result.cloud_jobs;
          queue.erase(best);
          progress = true;
          continue;
        }
      }
    }

    // Advance to the next event: first running-job completion or arrival.
    double next_event = -1;
    for (const auto& l : live) {
      if (l.running) {
        const double t = now + std::max(0.0, l.remaining);
        next_event = next_event < 0 ? t : std::min(next_event, t);
      }
    }
    if (next < jobs.size()) {
      next_event =
          next_event < 0 ? jobs[next].submit_s : std::min(next_event, jobs[next].submit_s);
    }
    if (next_event < 0) break;  // only suspended jobs with nothing to free them: impossible
    const double to = std::max(now, next_event);
    advance_running(to);
    now = to;
    complete_finished();
  }

  double total_wait = 0;
  for (const auto& j : result.jobs) {
    total_wait += j.wait_s;
    result.max_wait_s = std::max(result.max_wait_s, j.wait_s);
    result.makespan_s = std::max(result.makespan_s, j.finish_s);
  }
  if (!result.jobs.empty()) {
    result.mean_wait_s = total_wait / static_cast<double>(result.jobs.size());
  }
  return result;
}

}  // namespace cirrus::cloud
