#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "apps/chaste/chaste.hpp"
#include "apps/metum/metum.hpp"
#include "cloud/wf_sched.hpp"
#include "npb/npb.hpp"
#include "obs/json_writer.hpp"
#include "obs/jsonlite.hpp"
#include "osu/osu.hpp"
#include "storage/storage.hpp"
#include "topo/topo.hpp"
#include "wf/dag.hpp"
#include "wf/runtime.hpp"

namespace cirrus::serve {

namespace {

using obs::jsonw::Writer;

/// splitmix64 — mixes (key_hash, hit ordinal) into a uniform 64-bit value
/// for the deterministic verify-sampling decision.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::string error_body(const std::string& message) {
  Writer w;
  w.begin_object().key("error").value(message).end_object();
  return w.str();
}

// ---------------------------------------------------------------------------
// Shared execution plumbing.
// ---------------------------------------------------------------------------

mpi::JobConfig to_job_config(const core::RunRequest& req, const ExecOptions& exec) {
  mpi::JobConfig cfg;
  cfg.platform = plat::by_name(req.resolved_platform());
  cfg.np = req.np;
  cfg.max_ranks_per_node = req.rpn;
  cfg.seed = req.seed;
  cfg.execute = req.execute;
  cfg.eager_threshold_bytes = static_cast<std::size_t>(req.eager_bytes);
  cfg.topology.kind = topo::kind_from_string(req.topo);
  cfg.topology.oversubscription = req.oversub;
  cfg.topology.leaf_radix = req.leaf;
  cfg.placement = topo::placement_from_string(req.placement);
  cfg.storage_backend = storage::backend_from_string(req.storage);
  cfg.enable_trace = exec.enable_trace;
  cfg.telemetry = exec.telemetry;
  return cfg;
}

namespace {

/// The fault/resilience wrapper shared by every workload: plain run_job
/// when no fault knobs are set, schedule + checkpoint/restart otherwise.
RunOutcome run_with_faults(mpi::JobConfig cfg, const core::RunRequest& req,
                           const std::function<void(mpi::RankEnv&)>& body) {
  RunOutcome out;
  if (req.mtbf_s <= 0 && req.ckpt_s <= 0) {
    out.result = mpi::run_job(cfg, body);
    return out;
  }
  cfg.checkpoint_interval_s = req.ckpt_s;
  const auto placement =
      plat::place_block(cfg.platform, cfg.np, cfg.max_ranks_per_node, cfg.traits, cfg.seed);
  int nodes = 1;
  for (const auto& p : placement) nodes = std::max(nodes, p.node + 1);

  fault::FaultModel model;
  model.crash_mtbf_s = req.mtbf_s;
  const auto schedule =
      fault::FaultSchedule::generate(model, nodes, req.horizon_s, cfg.seed + 0x5EED);
  fault::ResilientOptions ropts;
  ropts.requeue_delay_s = req.requeue_s;
  out.resilient = fault::run_resilient(cfg, body, schedule, ropts);
  out.resilient_used = true;
  out.result = out.resilient.result;
  return out;
}

}  // namespace

RunOutcome execute(const core::RunRequest& req, const ExecOptions& exec) {
  std::string error;
  if (!req.validate(&error)) throw std::invalid_argument(error);

  if (req.workload == "npb") {
    const auto& info = npb::benchmark(req.bench_key());
    const auto cls = npb::class_from_char(req.cls[0]);
    auto cfg = to_job_config(req, exec);
    cfg.traits = info.traits;
    auto out = run_with_faults(cfg, req, [&info, cls](mpi::RankEnv& env) {
      const auto res = info.fn(env, cls);
      if (env.rank() == 0) {
        env.report("verified", res.verified ? 1.0 : 0.0);
        env.report("verification_value", res.verification_value);
      }
    });
    out.display_name = info.name + "." + req.cls + "." + std::to_string(req.np) + " on " +
                       req.resolved_platform();
    return out;
  }
  if (req.workload == "metum") {
    auto cfg = to_job_config(req, exec);
    cfg.traits = metum::traits();
    cfg.name = "metum";
    auto out = run_with_faults(cfg, req, [](mpi::RankEnv& env) { metum::run(env); });
    out.display_name = "MetUM N320L70 on " + req.resolved_platform();
    return out;
  }
  if (req.workload == "chaste") {
    auto cfg = to_job_config(req, exec);
    cfg.traits = chaste::traits();
    cfg.name = "chaste";
    auto out = run_with_faults(cfg, req, [](mpi::RankEnv& env) { chaste::run(env); });
    out.display_name = "Chaste rabbit heart on " + req.resolved_platform();
    return out;
  }
  if (req.workload == "wf") {
    auto cfg = to_job_config(req, exec);
    wf::GenOptions gen;
    gen.shape = wf::shape_from_string(req.wf_shape);
    gen.width = req.wf_width;
    gen.seed = req.seed;
    const wf::Dag dag = wf::generate(gen);
    // np is the worker count; the runtime adds the master rank itself.
    const auto costs = cloud::WfCostModel::estimate(
        cfg.platform, storage::model_for(cfg.platform, cfg.storage_backend));
    const wf::Plan plan = cloud::plan_workflow(
        dag, req.np, cloud::wf_policy_from_string(req.wf_sched), costs);
    wf::Result res = wf::run(dag, plan, cfg);

    RunOutcome out;
    out.result = std::move(res.job);
    auto& v = out.result.values;
    v["wf_tasks"] = static_cast<double>(res.tasks);
    v["wf_makespan_s"] = res.makespan_s;
    v["wf_predicted_s"] = plan.predicted_makespan_s;
    v["wf_staged_files"] = static_cast<double>(res.staged_files);
    v["wf_staged_mb"] = static_cast<double>(res.staged_bytes) / 1e6;
    v["wf_scratch_hits"] = static_cast<double>(res.scratch_hits);
    v["wf_scratch_mb"] = static_cast<double>(res.scratch_bytes) / 1e6;
    if (req.resolved_platform() == "ec2") {
      const auto placement = plat::place_block(cfg.platform, req.np + 1,
                                               cfg.max_ranks_per_node, cfg.traits, cfg.seed);
      int instances = 1;
      for (const auto& p : placement) instances = std::max(instances, p.node + 1);
      const auto price = cloud::price_workflow(instances, res.makespan_s, req.seed);
      v["wf_cost_usd"] = price.cost_usd;
    }
    out.display_name = "wf " + dag.name + " (" + req.wf_sched + ", " +
                       out.result.storage_name + ") on " + req.resolved_platform();
    return out;
  }
  throw std::invalid_argument("execute: workload '" + req.workload +
                              "' is not a job (osu queries go through query_json)");
}

std::string query_json(const core::RunRequest& req) {
  Writer w;
  w.begin_object();
  if (req.workload == "osu") {
    const auto platform = plat::by_name(req.resolved_platform());
    const std::string test = req.bench_key();
    w.key("name").value("osu_" + test + " on " + req.resolved_platform());
    w.key("workload").value("osu");
    w.key("platform").value(req.resolved_platform());
    w.key("generation").value(req.generation());
    w.key("points").begin_array();
    if (test == "bw") {
      for (const auto& p : osu::bandwidth(platform, osu::default_sizes())) {
        w.begin_object()
            .key("bytes")
            .value(static_cast<unsigned long long>(p.bytes))
            .key("mb_per_s")
            .value(p.mb_per_s)
            .end_object();
      }
    } else {
      for (const auto& p : osu::latency(platform, osu::default_sizes())) {
        w.begin_object()
            .key("bytes")
            .value(static_cast<unsigned long long>(p.bytes))
            .key("usec")
            .value(p.usec)
            .end_object();
      }
    }
    w.end_array().end_object();
    return w.str();
  }

  const RunOutcome out = execute(req);
  const auto& r = out.result;
  w.key("name").value(out.display_name);
  w.key("workload").value(req.workload);
  w.key("platform").value(req.resolved_platform());
  w.key("generation").value(req.generation());
  w.key("np").value(req.np);
  w.key("elapsed_s").value(r.elapsed_seconds);
  w.key("comm_pct").value(r.ipm.comm_pct());
  w.key("imbalance_pct").value(r.ipm.imbalance_pct());
  w.key("events").value(static_cast<unsigned long long>(r.events_processed));
  w.key("values").begin_object();
  for (const auto& [k, v] : r.values) w.key(k).value(v);  // std::map: sorted
  w.end_object();
  w.key("storage").begin_object();
  w.key("backend").value(r.storage_name);
  w.key("reads").value(static_cast<unsigned long long>(r.storage_stats.reads));
  w.key("writes").value(static_cast<unsigned long long>(r.storage_stats.writes));
  w.key("bytes_read").value(static_cast<unsigned long long>(r.storage_stats.bytes_read));
  w.key("bytes_written").value(static_cast<unsigned long long>(r.storage_stats.bytes_written));
  w.key("busy_s").value(static_cast<double>(r.storage_stats.busy) / 1e9);
  w.key("queued_s").value(static_cast<double>(r.storage_stats.queued) / 1e9);
  w.end_object();
  if (out.resilient_used) {
    const auto& f = out.resilient;
    w.key("faults")
        .begin_object()
        .key("attempts")
        .value(f.attempts)
        .key("crashes")
        .value(f.faults_hit)
        .key("lost_work_s")
        .value(f.lost_work_s)
        .key("restart_delay_s")
        .value(f.restart_delay_s)
        .key("checkpoints")
        .value(f.checkpoints_taken)
        .key("makespan_s")
        .value(f.makespan_s)
        .end_object();
  }
  w.end_object();
  return w.str();
}

std::string advise_json(const AdvisorRequest& req) {
  const AdvisorResult a = advise(req);
  Writer w;
  w.begin_object();
  w.key("name").value("advise " + req.bench + "." + std::to_string(req.np));
  w.key("bench").value(req.bench);
  w.key("np").value(req.np);
  w.key("queue_wait_h").value(req.queue_wait_h);
  w.key("local").begin_object();
  w.key("runtime_s").value(a.local_runtime_s);
  w.key("comm_pct").value(a.local_comm_pct);
  w.key("turnaround_s").value(a.local_turnaround_s);
  w.end_object();
  w.key("deploy").begin_object();
  w.key("image_mb").value(a.image_size_mb);
  w.key("build_s").value(a.image_build_s);
  w.key("isa_rebuild").value(a.isa_rebuild_needed);
  w.key("transfer_s").value(a.transfer_s);
  w.key("boot_s").value(a.boot_s);
  w.end_object();
  w.key("cluster").begin_object();
  w.key("instances").value(a.instances);
  w.key("ready_s").value(a.cluster_ready_s);
  w.key("hourly_usd").value(a.hourly_usd);
  w.end_object();
  w.key("prediction").begin_object();
  w.key("runtime_s").value(a.predicted_s);
  w.key("comp_s").value(a.predicted_comp_s);
  w.key("comm_s").value(a.predicted_comm_s);
  w.key("slowdown").value(a.slowdown);
  w.end_object();
  w.key("cloud").begin_object();
  w.key("turnaround_s").value(a.cloud_turnaround_s);
  w.key("on_demand_usd").value(a.on_demand_cost_usd);
  w.key("spot_usd").value(a.spot_cost_usd);
  w.end_object();
  w.key("advice").value(a.advice_string());
  w.key("advice_detail").value(a.advice_detail());
  w.end_object();
  return w.str();
}

// ---------------------------------------------------------------------------
// Gate.
// ---------------------------------------------------------------------------

bool Gate::acquire_for(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!cv_.wait_for(lock, timeout, [this] { return held_ < capacity_; })) return false;
  ++held_;
  return true;
}

void Gate::release() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    --held_;
  }
  cv_.notify_one();
}

int Gate::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return held_;
}

// ---------------------------------------------------------------------------
// Service.
// ---------------------------------------------------------------------------

Service::Service(Options opts)
    : opts_(opts),
      cache_(opts.cache),
      gate_(opts.max_inflight_jobs > 0
                ? opts.max_inflight_jobs
                : 2 * static_cast<int>(std::max(1U, std::thread::hardware_concurrency()))) {
  for (const char* route :
       {"query", "advise", "healthz", "metrics", "cache_stats", "spans", "other"}) {
    requests_[route] = registry_.counter("serve_requests_total", {{"route", route}});
  }
  resp_ok_ = registry_.counter("serve_responses_total", {{"class", "ok"}});
  resp_client_err_ = registry_.counter("serve_responses_total", {{"class", "client_error"}});
  resp_server_err_ = registry_.counter("serve_responses_total", {{"class", "server_error"}});
  resp_rejected_ = registry_.counter("serve_responses_total", {{"class", "rejected"}});
  cache_hit_ = registry_.counter("serve_cache_requests_total", {{"result", "hit"}});
  cache_miss_ = registry_.counter("serve_cache_requests_total", {{"result", "miss"}});
  verify_ok_ = registry_.counter("serve_verify_total", {{"result", "ok"}});
  verify_mismatch_ = registry_.counter("serve_verify_total", {{"result", "mismatch"}});
  queue_wait_us_ = registry_.histogram("serve_queue_wait_us");
  registry_.gauge("serve_inflight_jobs", {}, [this] { return double(gate_.in_flight()); });
  registry_.gauge("serve_cache_entries", {},
                  [this] { return double(cache_.stats().entries); });
  if (!opts_.access_log_path.empty()) {
    access_log_.open(opts_.access_log_path, std::ios::app);
    if (!access_log_) {
      throw std::runtime_error("cannot open access log: " + opts_.access_log_path);
    }
  }
}

bool Service::should_verify(std::uint64_t key_hash, std::uint64_t nth_hit) const {
  if (opts_.verify_fraction <= 0) return false;
  if (opts_.verify_fraction >= 1) return true;
  const double u = double(mix64(key_hash ^ (nth_hit * 0x9e3779b97f4a7c15ULL))) /
                   double(UINT64_MAX);
  return u < opts_.verify_fraction;
}

HttpResponse Service::serve_blob(const std::string& key, std::uint64_t key_hash,
                                 const std::function<std::string()>& compute,
                                 std::uint64_t parsed_us, TraceCtx& ctx) {
  char hash_hex[17] = {};
  core::hex16(key_hash, hash_hex);
  // The envelope in one pass, byte for byte what jsonw::Writer would emit:
  // {"schema":"cirrus-serve/1","cache":…,"key":…,"key_hash":…,"result":<blob>}.
  // The cache status and hash need no escaping.
  const auto respond = [&](const char* cache_status, const std::string& blob,
                           std::uint64_t begin_us) {
    HttpResponse resp{200, "application/json", {}, {}};
    std::string& body = resp.body;
    body.reserve(blob.size() + key.size() + 96);
    body += R"({"schema":"cirrus-serve/1","cache":")";
    body += cache_status;
    body += R"(","key":")";
    obs::jsonw::append_escaped(body, key);
    body += R"(","key_hash":")";
    body += hash_hex;
    body += R"(","result":)";
    body += blob;
    body += '}';
    resp.headers.reserve(4);  // room for the trace id and one front-end header
    resp.headers.emplace_back("X-Cirrus-Cache", cache_status);
    resp.headers.emplace_back("X-Cirrus-Key", hash_hex);
    ctx.span("serialize", begin_us, ctx.now_us());
    return resp;
  };

  const BlobRef blob = cache_.get(key, key_hash);
  std::uint64_t t = ctx.span("cache", parsed_us, ctx.now_us());
  if (blob) {
    ctx.rec.cache = "hit";
    bool verify_failed = false;
    std::uint64_t nth = 0;
    {
      std::lock_guard<std::mutex> lock(metrics_mu_);
      cache_hit_.inc();
      nth = hit_seq_++;
    }
    if (should_verify(key_hash, nth)) {
      // Re-execute and byte-compare: determinism means the stored blob must
      // be exactly reproducible. Verification is real compute, so it takes
      // a slot like any miss — but a full queue just skips the audit rather
      // than failing the (already answered) hit.
      if (gate_.acquire_for(std::chrono::milliseconds(opts_.queue_timeout_ms))) {
        // The audit recompute is spanned as "verify", not "execute": a hit's
        // span chain must never show an execute phase (the answer came from
        // the cache either way).
        const std::uint64_t verify_b = ctx.now_us();
        std::string recomputed;
        try {
          recomputed = compute();
        } catch (...) {
          gate_.release();
          throw;
        }
        gate_.release();
        t = ctx.span("verify", verify_b, ctx.now_us());
        const bool ok = recomputed == *blob;
        std::lock_guard<std::mutex> lock(metrics_mu_);
        (ok ? verify_ok_ : verify_mismatch_).inc();
        verify_failed = !ok;
      }
    }
    if (verify_failed) {
      ctx.rec.cache = "verify-failed";
      return {500, "application/json",
              error_body(std::string("cache verify mismatch for key ") + hash_hex +
                         " (determinism violation)"),
              {{"X-Cirrus-Cache", "verify-failed"}}};
    }
    return respond("hit", *blob, t);
  }

  // Miss: bounded admission, then compute + fill.
  ctx.rec.cache = "miss";
  if (!gate_.acquire_for(std::chrono::milliseconds(opts_.queue_timeout_ms))) {
    ctx.span("gate-wait", t, ctx.now_us());
    ctx.rec.cache = "rejected";
    return {503, "application/json",
            error_body("compute queue full (in-flight limit " +
                       std::to_string(gate_.capacity()) + ", waited " +
                       std::to_string(opts_.queue_timeout_ms) + " ms)"),
            {{"Retry-After", "1"}, {"X-Cirrus-Cache", "rejected"}}};
  }
  const std::uint64_t admitted = ctx.span("gate-wait", t, ctx.now_us());
  std::string computed;
  try {
    computed = compute();
  } catch (...) {
    gate_.release();
    throw;
  }
  gate_.release();
  const std::uint64_t executed = ctx.span("execute", admitted, ctx.now_us());
  const BlobRef stored = cache_.put(key, key_hash, std::move(computed));
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    cache_miss_.inc();
    queue_wait_us_.observe(admitted - t);
  }
  return respond("miss", *stored, executed);
}

namespace {

/// Key/value view of a request: query string for GET, flat JSON object for
/// POST. Returns false + `error` on malformed input.
bool request_kvs(const HttpRequest& req,
                 std::vector<std::pair<std::string, std::string>>& out, std::string* error) {
  if (req.method == "GET" || req.body.empty()) {
    out = parse_query_string(req.query);
    return true;
  }
  obs::jsonlite::Value doc;
  std::string parse_error;
  if (!obs::jsonlite::parse(req.body, doc, &parse_error)) {
    *error = "invalid JSON body: " + parse_error;
    return false;
  }
  if (!doc.is(obs::jsonlite::Value::Type::Object)) {
    *error = "JSON body must be an object of request knobs";
    return false;
  }
  for (const auto& [k, v] : doc.object) {
    switch (v.type) {
      case obs::jsonlite::Value::Type::String:
        out.emplace_back(k, v.str);
        break;
      case obs::jsonlite::Value::Type::Number: {
        // Integral numbers render without exponent/fraction so "64" and
        // 64 canonicalise identically.
        if (v.number == std::floor(v.number) && std::abs(v.number) < 9e15) {
          out.emplace_back(k, std::to_string(static_cast<long long>(v.number)));
        } else {
          out.emplace_back(k, obs::jsonw::number(v.number));
        }
        break;
      }
      case obs::jsonlite::Value::Type::Bool:
        out.emplace_back(k, v.boolean ? "1" : "0");
        break;
      default:
        *error = "value of '" + k + "' must be a string, number or bool";
        return false;
    }
  }
  return true;
}

/// False + `error` (naming the platform's rank limit) when the request's
/// ranks do not fit its platform: a client error, caught before compute
/// so place_block never throws inside it. osu runs a fixed two-rank probe;
/// a workflow adds its master rank to the `np` workers.
bool fits_platform(const core::RunRequest& run, std::string* error) {
  if (run.workload == "osu") return true;
  const int ranks = run.workload == "wf" ? run.np + 1 : run.np;
  *error = plat::placement_error(plat::by_name(run.resolved_platform()), ranks, run.rpn);
  return error->empty();
}

}  // namespace

HttpResponse Service::handle_query(const HttpRequest& req, TraceCtx& ctx) {
  std::vector<std::pair<std::string, std::string>> kvs;
  std::string error;
  if (!request_kvs(req, kvs, &error)) return {400, "application/json", error_body(error), {}};
  core::RunRequest run;
  if (!core::RunRequest::parse(kvs, run, &error) || !fits_platform(run, &error)) {
    return {400, "application/json", error_body(error), {}};
  }
  const std::string key = run.canonical_key();
  const std::uint64_t key_hash = core::fnv1a64(key);
  return serve_blob(key, key_hash, [&run] { return query_json(run); },
                    ctx.span("parse", 0, ctx.now_us()), ctx);
}

HttpResponse Service::handle_advise(const HttpRequest& req, TraceCtx& ctx) {
  std::vector<std::pair<std::string, std::string>> kvs;
  std::string error;
  if (!request_kvs(req, kvs, &error)) return {400, "application/json", error_body(error), {}};
  AdvisorRequest areq;
  if (!AdvisorRequest::parse(kvs, areq, &error)) {
    return {400, "application/json", error_body(error), {}};
  }
  const std::string key = areq.canonical_key();
  const std::uint64_t key_hash = core::fnv1a64(key);
  return serve_blob(key, key_hash, [&areq] { return advise_json(areq); },
                    ctx.span("parse", 0, ctx.now_us()), ctx);
}

namespace {

const char* route_name(const std::string& path) noexcept {
  if (path == "/query") return "query";
  if (path == "/advise") return "advise";
  if (path == "/healthz") return "healthz";
  if (path == "/metrics") return "metrics";
  if (path == "/cache/stats") return "cache_stats";
  if (path == "/spans") return "spans";
  return "other";
}

}  // namespace

HttpResponse Service::handle(const HttpRequest& req) {
  TraceCtx ctx;
  ctx.start = std::chrono::steady_clock::now();
  ctx.rec.id = ++trace_seq_;
  ctx.rec.route = route_name(req.path);
  HttpResponse resp = route_request(req, ctx);
  resp.headers.emplace_back("X-Cirrus-Trace", core::hex16(ctx.rec.id));
  finish_trace(ctx, resp);
  return resp;
}

HttpResponse Service::route_request(const HttpRequest& req, TraceCtx& ctx) {
  try {
    if (req.path == "/query") return handle_query(req, ctx);
    if (req.path == "/advise") return handle_advise(req, ctx);
    if (req.path == "/healthz") return {200, "application/json", R"({"status":"ok"})", {}};
    if (req.path == "/metrics") return {200, "text/plain; version=0.0.4", metrics_text(), {}};
    if (req.path == "/cache/stats") {
      const auto s = cache_.stats();
      Writer w;
      w.begin_object();
      w.key("hits").value(static_cast<unsigned long long>(s.hits));
      w.key("misses").value(static_cast<unsigned long long>(s.misses));
      w.key("evictions").value(static_cast<unsigned long long>(s.evictions));
      w.key("disk_hits").value(static_cast<unsigned long long>(s.disk_hits));
      w.key("collisions").value(static_cast<unsigned long long>(s.collisions));
      w.key("entries").value(static_cast<unsigned long long>(s.entries));
      w.key("capacity").value(static_cast<unsigned long long>(cache_.capacity()));
      w.end_object();
      return {200, "application/json", w.str(), {}};
    }
    if (req.path == "/spans") return handle_spans();
    return {404, "application/json", error_body("no route for " + req.path), {}};
  } catch (const std::invalid_argument& e) {
    // A shape the workload cannot run (CG or MG at a non-power-of-two np, a
    // job that does not fit its platform): a client error, as cirrus_run
    // exits 2 for it.
    return {400, "application/json", error_body(e.what()), {}};
  } catch (const std::exception& e) {
    return {500, "application/json", error_body(e.what()), {}};
  }
}

HttpResponse Service::handle_spans() {
  Writer w;
  w.begin_object();
  w.key("schema").value("cirrus-serve-spans/1");
  w.key("requests");
  w.begin_array();
  for (const RequestTrace& t : recent_traces()) {
    w.begin_object();
    w.key("trace").value(core::hex16(t.id));
    w.key("route").value(t.route);
    w.key("status").value(static_cast<long long>(t.status));
    w.key("cache").value(t.cache);
    w.key("latency_us").value(static_cast<unsigned long long>(t.total_us));
    w.key("spans");
    w.begin_array();
    for (const RequestSpan& s : t.spans) {
      w.begin_object();
      w.key("name").value(s.name);
      w.key("begin_us").value(static_cast<unsigned long long>(s.begin_us));
      w.key("end_us").value(static_cast<unsigned long long>(s.end_us));
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return {200, "application/json", w.str(), {}};
}

std::vector<RequestTrace> Service::recent_traces() const {
  std::lock_guard<std::mutex> lock(traces_mu_);
  return {traces_.begin(), traces_.end()};
}

void Service::finish_trace(TraceCtx& ctx, const HttpResponse& resp) {
  ctx.rec.status = resp.status;
  ctx.rec.total_us = ctx.now_us();
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    requests_.at(ctx.rec.route).inc();
    // serve_responses_total by class: 503 is the admission gate's rejection.
    (resp.status == 200   ? resp_ok_
     : resp.status == 503 ? resp_rejected_
     : resp.status >= 500 ? resp_server_err_
                          : resp_client_err_)
        .inc();
    const auto [cell, fresh] = duration_us_.try_emplace({ctx.rec.route, ctx.rec.cache});
    if (fresh) {
      cell->second = registry_.histogram(
          "serve_request_duration_us",
          {{"route", std::string(ctx.rec.route)}, {"cache", std::string(ctx.rec.cache)}});
    }
    cell->second.observe(ctx.rec.total_us);
  }
  const bool slow = opts_.slow_ms > 0 &&
                    ctx.rec.total_us >= static_cast<std::uint64_t>(opts_.slow_ms) * 1000;
  if (access_log_.is_open() || slow) {
    const std::string id_hex = core::hex16(ctx.rec.id);
    if (access_log_.is_open()) {
      Writer w;
      w.begin_object();
      w.key("trace").value(id_hex);
      w.key("route").value(ctx.rec.route);
      w.key("status").value(static_cast<long long>(ctx.rec.status));
      w.key("cache").value(ctx.rec.cache);
      w.key("latency_us").value(static_cast<unsigned long long>(ctx.rec.total_us));
      w.end_object();
      std::lock_guard<std::mutex> lock(log_mu_);
      access_log_ << w.str() << '\n';
      access_log_.flush();
    }
    if (slow) {
      // Slow-request summary: the span chain inline, so the blame (gate
      // wait vs execute vs serialize) is visible without hitting /spans.
      std::string chain;
      for (const RequestSpan& s : ctx.rec.spans) {
        if (!chain.empty()) chain += ' ';
        chain += s.name;
        chain += '=';
        chain += std::to_string(s.end_us - s.begin_us);
        chain += "us";
      }
      std::lock_guard<std::mutex> lock(log_mu_);
      std::cerr << "[serve] slow request trace=" << id_hex << " route=" << ctx.rec.route
                << " status=" << ctx.rec.status << " cache=" << ctx.rec.cache
                << " total_us=" << ctx.rec.total_us << (chain.empty() ? "" : " ") << chain
                << '\n';
    }
  }
  {
    std::lock_guard<std::mutex> lock(traces_mu_);
    traces_.push_back(std::move(ctx.rec));
    while (traces_.size() > opts_.spans_capacity) traces_.pop_front();
  }
}

std::string Service::metrics_text() const {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  return registry_.prometheus_text();
}

}  // namespace cirrus::serve
