// The benchmark's workloads, correctness checks and layer probes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/request.hpp"
#include "valid/compare.hpp"

namespace perfbench {

using KVs = std::vector<std::pair<std::string, std::string>>;

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root = ".";  ///< repository checkout root
  /// Process start: the launcher's CLOCK_MONOTONIC reading just before it
  /// started this process (--t0), else the entry to main.
  Clock::time_point start = Clock::now();
  /// Set up, report the set-up time and exit before the first timed call.
  bool setup_only = false;
  /// Set-up times of the launcher's earlier set-up-only processes.
  std::vector<double> setup_samples;
};

/// Seconds from process start to now. Called just before the first timed
/// call, it is this process's set-up time.
double setup_elapsed(const RunArgs& args);

/// setup_s: the median of this process's set-up time and the launcher's
/// set-up-only samples.
double setup_median(const RunArgs& args, double own);

/// Correctness bookkeeping: one entry per operation (job run, request).
/// An operation fails when any of its checks fails; failures are counted,
/// never dropped, and the first few are described on stderr.
class Tally {
 public:
  void record(bool ok, const std::string& what);
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct Outcome {
  Metrics metrics;
  Tally tally;
};

// ---- checks (pure functions, exercised by the self-test) -------------------

/// Recorded virtual result of one job at the default request seed.
struct Recorded {
  double elapsed_s = 0;
  std::uint64_t events = 0;
};

/// Exact match of a job's virtual elapsed time and event count. Appends the
/// reason to `why` on mismatch.
bool check_recorded(const Recorded& rec, double elapsed_s, std::uint64_t events,
                    std::string* why);
/// A reference pin (value within its rel/abs tolerance).
bool check_pin(const cirrus::valid::RefMetric& pin, double actual, std::string* why);
/// Critical-path blame fractions sum to 1 within 1e-9.
bool check_blame_sum(const std::vector<double>& fractions, std::string* why);
/// The `result` member of a serve envelope byte-equals `expected`.
bool check_blob(const std::string& envelope, const std::string& expected, std::string* why);
/// The `result` member of a serve envelope ("" when absent).
std::string envelope_result(const std::string& envelope);

/// Feeds corrupted inputs through every check and the tally; false if any
/// corruption would go uncounted.
bool self_test();

// ---- workloads --------------------------------------------------------------

bool is_sim_workload(const std::string& name);
Outcome run_sim_workload(const RunArgs& args);
Outcome run_serve_mix(const RunArgs& args);

/// Prints the recorded-values table for every sim job (regenerates
/// recorded.tsv).
int record_table();

// ---- serve load (serve-mix, and the serve probe of the sim workloads) ----

struct ServeSpec {
  std::vector<KVs> hot;         ///< pre-warmed configurations
  std::vector<KVs> alias_base;  ///< hot configurations every alias knob is inert on
  double rate = 300;            ///< nominal offered rate, requests/s
  double seconds = 10;          ///< length of the nominal phase
  double healthz_frac = 0.01;   ///< GET /healthz, of all requests
  double miss_frac = 0.10;      ///< misses, of the /query requests
  double alias_share = 0.5;     ///< inert-knob aliases of hot configurations, of the misses;
                                ///< the rest are cold misses on distinct new configurations
  std::vector<KVs> heavy;       ///< expensive misses, each sent once, evenly spaced
};

struct ServeResult {
  std::vector<double> all_ms, hit_ms, miss_ms, healthz_rtt_us, late_ms;
  std::vector<double> hit_handle_us, miss_handle_ms;
  double hit_outside_frac = 0;
  double gate_wait_p99_ms = 0;
  double hit_ratio = 0;
  double redundant_miss_frac = 0;
  std::uint64_t misses = 0, redundant_misses = 0;
  double sustainable_rps = 0;
  double cache_get_us = 0, cache_put_us = 0;
  double parse_us = 0;
  std::vector<KVs> miss_configs;  ///< distinct configurations computed in the window
  std::size_t mean_blob_bytes = 0;
};

/// Runs one traced serve load: fresh Service behind HttpServer on loopback,
/// pre-warm, seeded open-loop schedule over at most nproc connections, the
/// hits-only rate ladder, then the correctness pass (every 200 result
/// against serve::query_json).
ServeResult run_serve_load(const ServeSpec& spec, std::uint64_t seed, Tally& tally);

// ---- layer probes -----------------------------------------------------------

struct ProbeResults {
  double event_ns = 0;
  double fiber_switch_ns = 0;
  double eager_msg_ns = 0, rendezvous_msg_ns = 0, fattree_msg_ns = 0;
  /// Engine events and fiber switches per message in the ping probes, so
  /// the split can charge only the mpi/net share of a message to mpi.
  double eager_events_per_msg = 0, eager_switches_per_msg = 0;
  double rendezvous_events_per_msg = 0, rendezvous_switches_per_msg = 0;
  double fattree_hops_per_msg = 0;
};

/// Engine wave at `heap_depth` pending events, fiber switch, 2-rank eager
/// (8 B) / rendezvous (128 KiB) / fat-tree pings.
ProbeResults run_layer_probes(std::uint64_t heap_depth);

/// Standalone ResultCache fed `keys` with blobs of `blob_bytes`: microseconds
/// per put and per get.
std::pair<double, double> cache_probe(const std::vector<std::string>& keys,
                                      std::size_t blob_bytes);

/// RunRequest::parse + validate + canonical_key over `requests`:
/// microseconds per request.
double request_parse_probe(const std::vector<KVs>& requests);

/// Adds the probe metrics and the computed split of `execute_s` (the
/// workload's simulator time) across layers, plus the unattributed share.
void add_probe_metrics(const ProbeResults& p, const LayerCounts& c, double execute_s,
                       Metrics& m);

/// Counts, events/s and heap depth of a traced pass.
void add_count_metrics(const LayerCounts& c, double execute_s, Metrics& m);

/// Self time of the benchmark's spans around each layer: workload (the
/// benchmark's own bookkeeping), execute, critpath, export, probes, serve.
void add_self_time_metrics(const SpanLog& log, Metrics& m);

/// Serve-layer metrics of a traced serve load.
void add_serve_metrics(const ServeResult& r, Metrics& m);

/// Tracing cost of one configuration: traced vs untraced execute, trace and
/// span sizes, heap held per trace event, critpath and export time.
struct TraceCost {
  double untraced_s = 0, traced_s = 0, critpath_s = 0, export_s = 0;
  double trace_events = 0, spans = 0, held_bytes = 0;
  double export_bytes = 0, export_events = 0;  ///< of the exported traces only
};
TraceCost trace_cost_probe(const cirrus::core::RunRequest& req, Tally& tally, SpanLog* spans,
                           int parent);
void add_trace_cost_metrics(const TraceCost& t, Metrics& m);

/// Execute-mode kernel time: execute time minus the model-mode twin, per
/// NPB kernel, at class S on 4 ranks (the kernel probe used by workloads
/// without execute-mode jobs).
std::map<std::string, double> kernel_probe_ms(Tally& tally);

cirrus::core::RunRequest parse_kvs(const KVs& kvs);

}  // namespace perfbench
