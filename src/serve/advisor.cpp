#include "serve/advisor.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "cloud/cloud.hpp"
#include "cloud/packaging.hpp"
#include "npb/npb.hpp"
#include "obs/metrics.hpp"

namespace cirrus::serve {

std::string AdvisorRequest::canonical_key() const {
  return "advise bench=" + bench + " np=" + std::to_string(np) +
         " queue_wait_h=" + obs::format_double(queue_wait_h) + " seed=" + std::to_string(seed);
}

bool AdvisorRequest::parse(const std::vector<std::pair<std::string, std::string>>& kvs,
                           AdvisorRequest& out, std::string* error) {
  out = AdvisorRequest{};
  for (const auto& [k, v] : kvs) {
    char* end = nullptr;
    errno = 0;
    std::string why;
    if (k == "bench") {
      out.bench = v;
      for (auto& c : out.bench) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      const auto& all = npb::all_benchmarks();
      const auto named = [&out](const npb::BenchmarkInfo& b) { return b.name == out.bench; };
      if (std::none_of(all.begin(), all.end(), named)) {
        why = "bench: BT|EP|CG|FT|IS|LU|MG|SP expected, got '" + v + "'";
      }
    } else if (k == "np") {
      const long long np = std::strtoll(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0' || errno == ERANGE || np < 1 || np > (1 << 20)) {
        why = "np: integer in [1, 1048576] expected, got '" + v + "'";
      } else {
        out.np = static_cast<int>(np);
      }
    } else if (k == "queue_wait_hours" || k == "queue_wait_h") {
      out.queue_wait_h = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !std::isfinite(out.queue_wait_h) ||
          out.queue_wait_h < 0) {
        why = "queue_wait_hours: finite number >= 0 expected, got '" + v + "'";
      }
    } else if (k == "seed") {
      out.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0' || errno == ERANGE ||
          std::isdigit(static_cast<unsigned char>(v[0])) == 0) {
        why = "seed: non-negative integer expected, got '" + v + "'";
      }
    } else {
      why = "unknown key '" + k + "'";
    }
    if (!why.empty()) {
      if (error != nullptr) *error = std::move(why);
      return false;
    }
  }
  return true;
}

AdvisorResult advise(const AdvisorRequest& req) {
  using namespace cirrus;
  if (req.np < 1) throw std::invalid_argument("advise: np must be >= 1");
  AdvisorResult out;

  // 1. Profile the workload on the local HPC system (class B, model mode).
  const auto profile =
      npb::run_benchmark(req.bench, npb::Class::B, plat::vayu(), req.np, false);
  out.local_runtime_s = profile.elapsed_seconds;
  out.local_comm_pct = profile.ipm.comm_pct();

  // 2. Package the HPC environment into a VM image (paper §IV). The first
  //    attempt ships Vayu-tuned binaries and hits the paper's SSE4 barrier;
  //    the portable rebuild deploys cleanly.
  auto env = cloud::paper_environment();
  auto image = cloud::package_environment(env, plat::vayu());
  cloud::Deployment deployment;
  try {
    deployment = cloud::deploy_image(image, plat::ec2());
  } catch (const cloud::IncompatibleIsaError& e) {
    out.isa_rebuild_needed = true;
    out.isa_error = e.what();
    env = cloud::rebuild_portable(env);
    image = cloud::package_environment(env, plat::vayu());
    deployment = cloud::deploy_image(image, plat::ec2());
  }
  out.image_size_mb = image.size_mb;
  out.image_build_s = image.build_seconds;
  out.transfer_s = deployment.transfer_seconds;
  out.boot_s = deployment.boot_seconds;

  // 3. Provision a StarCluster-style EC2 cluster big enough for the job.
  //    One instance per 8 ranks: physical cores only, no HyperThread sharing
  //    (the paper's EC2-4 lesson: never oversubscribe).
  cloud::Provisioner prov(req.seed);
  out.instances = (req.np + 7) / 8;
  const auto cluster = prov.provision(out.instances);
  out.cluster_ready_s = cluster.ready_after_s;
  out.hourly_usd = cluster.hourly_usd;

  // 4. ARRIVE-F prediction of the runtime on the provisioned cluster.
  const auto traits = npb::benchmark(req.bench).traits;
  const auto pred = cloud::predict_runtime(profile.ipm, plat::vayu(), cluster.platform, req.np,
                                           -1, /*dst_max_rpn=*/8, traits);
  out.predicted_s = pred.seconds;
  out.predicted_comp_s = pred.comp_seconds;
  out.predicted_comm_s = pred.comm_seconds;
  out.slowdown = out.local_runtime_s > 0 ? pred.seconds / out.local_runtime_s : 0;

  // 5. Compare turnarounds and price the cloud run at spot.
  out.local_turnaround_s = req.queue_wait_h * 3600 + out.local_runtime_s;
  out.cloud_turnaround_s = deployment.ready_seconds + cluster.ready_after_s + pred.seconds;
  cloud::SpotMarket market(7);
  out.spot_cost_usd = market.cost(0, out.cloud_turnaround_s, out.instances);
  out.on_demand_cost_usd = cluster.hourly_usd * (out.cloud_turnaround_s / 3600.0);

  if (out.cloud_turnaround_s < out.local_turnaround_s && out.slowdown < 1.8) {
    out.advice = AdvisorResult::Advice::Burst;
  } else if (out.slowdown >= 1.8) {
    out.advice = AdvisorResult::Advice::StayCommBound;
  } else {
    out.advice = AdvisorResult::Advice::StayQueueShort;
  }
  return out;
}

const char* AdvisorResult::advice_string() const noexcept {
  switch (advice) {
    case Advice::Burst: return "burst";
    case Advice::StayCommBound: return "stay-comm-bound";
    case Advice::StayQueueShort: return "stay-queue-short";
  }
  return "?";
}

const char* AdvisorResult::advice_detail() const noexcept {
  switch (advice) {
    case Advice::Burst: return "burst this job to the cloud.";
    case Advice::StayCommBound:
      return "stay local — the job is too communication-bound for the cloud "
             "interconnect (the paper's key finding).";
    case Advice::StayQueueShort: return "stay local — the queue is short enough.";
  }
  return "?";
}

}  // namespace cirrus::serve
