// cirrus_serve's service layer: what-if queries in, deterministic JSON out.
//
// A query names one simulation configuration (core::RunRequest). The
// service canonicalises it, consults the content-addressed ResultCache and
// either serves the stored blob (a *bit-exact* answer, determinism
// guarantees it) or acquires a compute slot, runs the sweep on the
// simulator and caches the result. Responses carry `"cache":"hit|miss"`;
// everything else in the body is a pure function of the request, so warm
// repeats are byte-identical.
//
// Backpressure (DESIGN.md "Serving"): cache hits are served unconditionally
// — they cost microseconds. Misses must acquire one of `max_inflight_jobs`
// compute slots, waiting at most `queue_timeout_ms`; a timeout is a 503
// with Retry-After rather than an unbounded queue. This keeps worst-case
// memory and CPU proportional to the slot count no matter how many clients
// connect.
//
// Verify mode: with verify_fraction > 0, that fraction of cache hits is
// re-executed and byte-compared against the stored blob (a mismatch is a
// 500 and a metrics increment — it would mean the simulator lost
// determinism, which CI treats as a bug).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/request.hpp"
#include "fault/fault.hpp"
#include "mpi/minimpi.hpp"
#include "obs/metrics.hpp"
#include "serve/advisor.hpp"
#include "serve/cache.hpp"
#include "serve/http.hpp"

namespace cirrus::serve {

// ---------------------------------------------------------------------------
// Shared execution plumbing (also used by the cirrus_run CLI).
// ---------------------------------------------------------------------------

/// Front-end toggles that do not affect simulated results (and therefore
/// live outside the RunRequest / cache key): tracing and telemetry.
struct ExecOptions {
  bool enable_trace = false;
  obs::TelemetryConfig telemetry;
};

/// Everything one executed request produced. `result` carries the full
/// JobResult (trace/telemetry included) so CLI front ends can print IPM
/// tables; the service serialises only the deterministic parts.
struct RunOutcome {
  mpi::JobResult result;
  fault::ResilientRun resilient;  ///< filled when faults were enabled
  bool resilient_used = false;
  std::string display_name;       ///< e.g. "CG.B.64 on ec2"
};

/// Builds the mpi::JobConfig a request describes (topology, placement,
/// faults excluded — those are applied by execute()).
mpi::JobConfig to_job_config(const core::RunRequest& req, const ExecOptions& exec = {});

/// Runs the request end to end (npb/metum/chaste; resilient path when
/// mtbf/ckpt are set). Throws std::invalid_argument for osu requests —
/// those are table sweeps, not jobs; use query_json() or the osu API.
RunOutcome execute(const core::RunRequest& req, const ExecOptions& exec = {});

/// The deterministic result JSON for a request (compact single-line
/// object; osu requests yield a points array). This is the cached blob.
std::string query_json(const core::RunRequest& req);

/// The deterministic result JSON for an advisor request (the /advise blob).
std::string advise_json(const AdvisorRequest& req);

// ---------------------------------------------------------------------------
// Admission gate.
// ---------------------------------------------------------------------------

/// Counting semaphore with bounded wait: at most `capacity` holders; a
/// would-be holder gives up after `timeout`.
class Gate {
 public:
  explicit Gate(int capacity) : capacity_(capacity < 1 ? 1 : capacity) {}

  /// True if a slot was acquired within `timeout`.
  bool acquire_for(std::chrono::milliseconds timeout);
  void release();

  [[nodiscard]] int in_flight() const;
  [[nodiscard]] int capacity() const noexcept { return capacity_; }

 private:
  const int capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int held_ = 0;
};

// ---------------------------------------------------------------------------
// The service.
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Request tracing (the real-time twin of the simulator's virtual-time spans).
// ---------------------------------------------------------------------------

/// One wall-clock phase of a request's lifecycle; times are microseconds
/// since the request entered Service::handle().
struct RequestSpan {
  std::string name;  ///< parse | cache | gate-wait | execute | verify | serialize
  std::uint64_t begin_us = 0;
  std::uint64_t end_us = 0;
};

/// The trace record of one handled request, kept in a bounded ring and
/// exposed at /spans.
struct RequestTrace {
  std::uint64_t id = 0;      ///< monotone; rendered as 16-hex X-Cirrus-Trace
  std::string route;         ///< query | advise | healthz | metrics | cache_stats | spans | other
  int status = 0;
  std::string cache = "-";   ///< hit | miss | rejected | verify-failed | -
  std::uint64_t total_us = 0;
  std::vector<RequestSpan> spans;
};

class Service {
 public:
  struct Options {
    ResultCache::Options cache;
    int max_inflight_jobs = 0;     ///< <= 0: 2 x hardware threads
    int queue_timeout_ms = 5000;   ///< max wait for a compute slot
    double verify_fraction = 0;    ///< fraction of hits re-executed (0..1)
    std::string access_log_path;   ///< JSON-lines access log ("" = off)
    int slow_ms = 1000;            ///< slow-request log threshold (<=0 = off)
    std::size_t spans_capacity = 256;  ///< /spans ring size
  };

  explicit Service(Options opts);

  /// Routes one HTTP request:
  ///   GET  /healthz        -> {"status":"ok"}
  ///   GET  /metrics        -> Prometheus text exposition
  ///   GET  /query?k=v&...  -> result envelope (also POST with JSON body)
  ///   POST /advise         -> advisor envelope (also GET with query string)
  ///   GET  /cache/stats    -> cache counters
  ///   GET  /spans          -> recent request traces (parse/cache/gate-wait/
  ///                           execute/serialize span chains)
  /// Every response carries an X-Cirrus-Trace id; per-request span chains
  /// land in the /spans ring, the access log (if configured) and — above
  /// Options::slow_ms — a slow-request line on stderr.
  HttpResponse handle(const HttpRequest& req);

  /// Snapshot of the /spans ring, oldest first (tests and the endpoint).
  [[nodiscard]] std::vector<RequestTrace> recent_traces() const;

  [[nodiscard]] const ResultCache& cache() const noexcept { return cache_; }
  [[nodiscard]] const Gate& gate() const noexcept { return gate_; }

  /// Prometheus text of the request/cache/latency series.
  [[nodiscard]] std::string metrics_text() const;

 private:
  /// Per-request context threaded through the handlers: the trace record
  /// under construction plus its wall-clock origin.
  struct TraceCtx {
    RequestTrace rec;
    std::chrono::steady_clock::time_point start;

    [[nodiscard]] std::uint64_t now_us() const {
      return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                            std::chrono::steady_clock::now() - start)
                                            .count());
    }
    void span(const char* name, std::uint64_t begin_us, std::uint64_t end_us) {
      rec.spans.push_back(RequestSpan{name, begin_us, end_us});
    }
  };

  HttpResponse route_request(const HttpRequest& req, TraceCtx& ctx);
  HttpResponse handle_query(const HttpRequest& req, TraceCtx& ctx);
  HttpResponse handle_advise(const HttpRequest& req, TraceCtx& ctx);
  HttpResponse handle_spans();
  /// Cache-or-compute for an already-canonicalised key. `compute` runs
  /// without the stats lock; sets `status` and returns the envelope body.
  HttpResponse serve_blob(const std::string& key, const std::string& hash_hex,
                          const std::function<std::string()>& compute, TraceCtx& ctx);
  /// Deterministic hit-sampling decision for verify mode.
  bool should_verify(std::uint64_t key_hash, std::uint64_t nth_hit) const;
  /// Post-routing bookkeeping: per-route counter + duration histogram, the
  /// /spans ring push, the access-log line and the slow-request log.
  void finish_trace(TraceCtx& ctx, const HttpResponse& resp);

  Options opts_;
  ResultCache cache_;
  Gate gate_;

  mutable std::mutex metrics_mu_;
  obs::MetricsRegistry registry_;
  obs::Counter req_query_, req_advise_, req_healthz_, req_metrics_, req_cache_stats_,
      req_spans_, req_other_;
  obs::Counter resp_ok_, resp_client_err_, resp_server_err_, resp_rejected_;
  obs::Counter cache_hit_, cache_miss_;
  obs::Counter verify_ok_, verify_mismatch_;
  obs::Histogram queue_wait_us_;
  std::uint64_t hit_seq_ = 0;  // under metrics_mu_

  std::atomic<std::uint64_t> trace_seq_{0};
  mutable std::mutex traces_mu_;
  std::deque<RequestTrace> traces_;  // bounded ring, newest at back

  std::mutex log_mu_;
  std::ofstream access_log_;  // open iff Options::access_log_path non-empty
};

/// JSON error body ({"error": "..."}).
std::string error_body(const std::string& message);

}  // namespace cirrus::serve
