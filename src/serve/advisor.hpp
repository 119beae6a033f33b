// The cloud-burst advisor pipeline as a library: profile -> package ->
// provision -> predict -> compare, returning a structured result.
//
// This is the paper's end-to-end motivating workflow. cirrus_serve's
// /advise endpoint and `cirrus_run advise` both parse their input with
// AdvisorRequest::parse and print serve::advise_json(), so the CLI and the
// server accept the same keys and print the same bytes. advise() never
// prints: every intermediate of the pipeline is a field of AdvisorResult.
//
// Deterministic: fixed request -> byte-stable result (all randomness flows
// from the request seed), so /advise responses are cacheable exactly like
// /query responses.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace cirrus::serve {

struct AdvisorRequest {
  std::string bench = "CG";     ///< NPB kernel profiled as "the queued job"
  int np = 16;
  double queue_wait_h = 4.0;    ///< projected local HPC queue wait
  std::uint64_t seed = 42;      ///< provisioner/spot-market seed

  /// Canonical cache key ("advise bench=CG np=16 queue_wait_h=4 seed=42").
  [[nodiscard]] std::string canonical_key() const;

  /// Builds a request from (key, value) pairs in any order: `bench` (an
  /// NPB kernel, any case), `np` (1..2^20, the /query range),
  /// `queue_wait_hours` (alias `queue_wait_h`; finite, >= 0) and `seed`.
  /// An unknown key or a malformed value returns false and sets `error`,
  /// which starts with the key.
  static bool parse(const std::vector<std::pair<std::string, std::string>>& kvs,
                    AdvisorRequest& out, std::string* error);
};

struct AdvisorResult {
  // 1. Local profile (class B, model mode, on Vayu).
  double local_runtime_s = 0;
  double local_comm_pct = 0;

  // 2. Environment packaging and deployment (paper §IV).
  double image_size_mb = 0;
  double image_build_s = 0;
  bool isa_rebuild_needed = false;  ///< first deploy hit the SSE4 barrier
  std::string isa_error;            ///< the rejection message when it did
  double transfer_s = 0;
  double boot_s = 0;

  // 3. Provisioned StarCluster-style EC2 cluster.
  int instances = 0;
  double cluster_ready_s = 0;
  double hourly_usd = 0;

  // 4. ARRIVE-F prediction on the provisioned cluster.
  double predicted_s = 0;
  double predicted_comp_s = 0;
  double predicted_comm_s = 0;
  double slowdown = 0;  ///< predicted cloud runtime / local runtime

  // 5. Turnaround and cost comparison.
  double local_turnaround_s = 0;
  double cloud_turnaround_s = 0;
  double on_demand_cost_usd = 0;
  double spot_cost_usd = 0;

  enum class Advice {
    Burst,             ///< cloud turnaround wins and the slowdown is tolerable
    StayCommBound,     ///< too communication-bound for the cloud interconnect
    StayQueueShort,    ///< the local queue is short enough
  };
  Advice advice = Advice::StayQueueShort;

  [[nodiscard]] const char* advice_string() const noexcept;
  /// One-sentence human rationale.
  [[nodiscard]] const char* advice_detail() const noexcept;
};

/// Runs the full pipeline. Throws std::invalid_argument for an unknown
/// benchmark name or np < 1.
AdvisorResult advise(const AdvisorRequest& req);

}  // namespace cirrus::serve
