// The three simulator workloads (sim-paper, sim-execute, sim-traced) and the
// correctness checks shared with serve-mix.
//
// Every job goes through serve::execute(), the path cirrus_run, the
// cirrus_bench blame probes and cirrus_serve misses share, with the default
// heap4 scheduler and one LP, one job after another on one thread: the
// numbers measure the simulator, not the OS scheduler. The job lists are
// fixed, in a fixed order: each job keeps request seed 1, so its virtual
// elapsed time and event count are checked exactly against recorded.tsv on
// every run, and a job's wall time depends on the jobs run before it in the
// same process (IS.B.32/ec2 takes ~0.3 s first and ~0.7-1 s after the
// others), so a seeded order would only add spread. The benchmark seed
// drives the serve probe of the traced run.
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "obs/critpath.hpp"
#include "obs/trace_export.hpp"
#include "platform/platform.hpp"
#include "serve/service.hpp"
#include "workloads.hpp"

namespace perfbench {

using cirrus::core::RunRequest;
namespace serve = cirrus::serve;
namespace critpath = cirrus::obs::critpath;

// ---------------------------------------------------------------------------
// Checks.
// ---------------------------------------------------------------------------

void Tally::record(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failed_ <= 20) std::cerr << "perfbench: check failed: " << what << '\n';
}

bool check_recorded(const Recorded& rec, double elapsed_s, std::uint64_t events,
                    std::string* why) {
  if (elapsed_s == rec.elapsed_s && events == rec.events) return true;
  char buf[160];
  std::snprintf(buf, sizeof buf, "elapsed %.17g (recorded %.17g), events %llu (recorded %llu)",
                elapsed_s, rec.elapsed_s, static_cast<unsigned long long>(events),
                static_cast<unsigned long long>(rec.events));
  *why += buf;
  return false;
}

bool check_pin(const cirrus::valid::RefMetric& pin, double actual, std::string* why) {
  if (pin.tol.within(pin.value, actual)) return true;
  *why += " pin " + pin.target + "/" + pin.name + "/" + pin.platform + " expected " +
          std::to_string(pin.value) + " got " + std::to_string(actual);
  return false;
}

bool check_blame_sum(const std::vector<double>& fractions, std::string* why) {
  double sum = 0;
  for (const double f : fractions) sum += f;
  if (std::abs(sum - 1.0) <= 1e-9) return true;
  *why += " blame fractions sum to " + std::to_string(sum);
  return false;
}

std::string envelope_result(const std::string& envelope) {
  // serve_blob writes "result" last: {"schema":..,"key_hash":..,"result":<blob>}
  static const std::string tag = "\"result\":";
  const auto at = envelope.rfind(tag);
  if (at == std::string::npos || envelope.size() < at + tag.size() + 1 ||
      envelope.back() != '}') {
    return {};
  }
  return envelope.substr(at + tag.size(), envelope.size() - at - tag.size() - 1);
}

bool check_blob(const std::string& envelope, const std::string& expected, std::string* why) {
  if (envelope_result(envelope) == expected) return true;
  *why += " result blob differs from query_json";
  return false;
}

bool self_test() {
  bool ok = true;
  const auto expect_fail = [&ok](bool passed, const char* what) {
    if (passed) {
      std::cerr << "perfbench self-test: corrupted " << what << " was not detected\n";
      ok = false;
    }
  };
  std::string why;
  const Recorded rec{72.42969391, 5971234};
  expect_fail(check_recorded(rec, std::nextafter(rec.elapsed_s, 1e9), rec.events, &why),
              "elapsed time");
  expect_fail(check_recorded(rec, rec.elapsed_s, rec.events + 1, &why), "event count");
  cirrus::valid::RefMetric pin;
  pin.value = 72.43;
  pin.tol.rel = 0.05;
  expect_fail(check_pin(pin, 80.0, &why), "pinned value");
  expect_fail(check_blame_sum({0.5, 0.4999}, &why), "blame sum");
  const std::string env = R"({"schema":"cirrus-serve/1","cache":"hit","result":{"a":1}})";
  expect_fail(check_blob(env, R"({"a":2})", &why), "result blob");
  expect_fail(check_blob(R"({"error":"x"})", R"({"a":1})", &why), "missing result");
  if (!check_blob(env, R"({"a":1})", &why) ||
      !check_recorded(rec, rec.elapsed_s, rec.events, &why)) {
    std::cerr << "perfbench self-test: a correct value was rejected\n";
    ok = false;
  }
  // A failed check must be counted against the operations attempted.
  Tally t;
  std::streambuf* saved = std::cerr.rdbuf(nullptr);
  t.record(true, "");
  t.record(false, "corrupted");
  std::cerr.rdbuf(saved);
  if (t.attempted() != 2 || t.failed() != 1) {
    std::cerr << "perfbench self-test: tally dropped a failure\n";
    ok = false;
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Job lists.
// ---------------------------------------------------------------------------

RunRequest parse_kvs(const KVs& kvs) {
  RunRequest req;
  std::string error;
  if (!RunRequest::parse(kvs, req, &error) || !req.validate(&error)) {
    throw std::invalid_argument("perfbench: bad request: " + error);
  }
  return req;
}

namespace {

struct SimJob {
  std::string label;
  KVs kvs;
  bool traced = false;       ///< tracing on, critpath on every job
  bool exported = false;     ///< enriched_chrome_json into memory
  std::string pin_target;    ///< critpath.ref target ("" = no pin)
  std::string pin_platform;  ///< critpath.ref platform column
};

SimJob job(std::string label, KVs kvs, bool traced = false, bool exported = false,
           std::string pin_target = "", std::string pin_platform = "") {
  return {std::move(label), std::move(kvs), traced, exported, std::move(pin_target),
          std::move(pin_platform)};
}

std::vector<SimJob> jobs_for(const std::string& workload) {
  const auto npb = [](const char* bench, const char* cls, int np, const char* platform) {
    return KVs{{"workload", "npb"}, {"bench", bench}, {"class", cls},
               {"np", std::to_string(np)}, {"platform", platform}};
  };
  const auto app = [](const char* app, int np, const char* platform) {
    return KVs{{"workload", app}, {"np", std::to_string(np)}, {"platform", platform}};
  };
  const auto with = [](KVs kvs, KVs extra) {
    kvs.insert(kvs.end(), extra.begin(), extra.end());
    return kvs;
  };
  if (workload == "sim-paper") {
    return {
        job("CG.B.64/dcc", npb("CG", "B", 64, "dcc"), false, false, "fig4", "cg.dcc"),
        job("CG.B.64/vayu-fattree4",
            with(npb("CG", "B", 64, "vayu"), {{"topo", "fattree"}, {"oversub", "4"}})),
        job("FT.B.64/dcc", npb("FT", "B", 64, "dcc"), false, false, "fig4", "ft.dcc"),
        job("IS.B.32/ec2", npb("IS", "B", 32, "ec2")),
        job("MetUM/vayu/64", app("metum", 64, "vayu")),
        job("Chaste/dcc/32", app("chaste", 32, "dcc")),
        job("wf-epigenomics-64/lustre/vayu/16",
            with(app("wf", 16, "vayu"),
                 {{"wf-shape", "epigenomics"}, {"wf-width", "64"}, {"storage", "lustre"}})),
    };
  }
  if (workload == "sim-execute") {
    const KVs exec{{"execute", "1"}};
    return {
        job("CG.A.8/vayu", with(npb("CG", "A", 8, "vayu"), exec)),
        job("MG.A.8/vayu", with(npb("MG", "A", 8, "vayu"), exec)),
        job("IS.A.8/vayu", with(npb("IS", "A", 8, "vayu"), exec)),
        job("FT.W.8/ec2", with(npb("FT", "W", 8, "ec2"), exec)),
        job("EP.W.8/vayu", with(npb("EP", "W", 8, "vayu"), exec)),
    };
  }
  if (workload == "sim-traced") {
    return {
        job("CG.B.64/dcc", npb("CG", "B", 64, "dcc"), true, false, "fig4", "cg.dcc"),
        job("MetUM/dcc/64", app("metum", 64, "dcc"), true, false, "fig6", "metum.dcc"),
        job("MetUM/dcc/32", app("metum", 32, "dcc"), true, true),
        job("FT.B.64/dcc", npb("FT", "B", 64, "dcc"), true, true, "fig4", "ft.dcc"),
        job("montage-12/ec2/object/8",
            with(app("wf", 8, "ec2"), {{"wf-shape", "montage"},
                                       {"wf-width", "12"},
                                       {"storage", "object"},
                                       {"rpn", "8"}}),
            true, true, "ext7", "montage.ec2.object"),
    };
  }
  throw std::invalid_argument("unknown workload " + workload);
}

/// The configuration whose tracing cost the model-mode workloads report
/// (sim-traced measures its own jobs).
KVs trace_probe_job(const std::string& workload) {
  if (workload == "sim-execute") {
    return {{"workload", "npb"}, {"bench", "FT"}, {"class", "W"}, {"np", "8"},
            {"platform", "ec2"}, {"execute", "1"}};
  }
  return {{"workload", "npb"}, {"bench", "FT"}, {"class", "B"}, {"np", "64"}, {"platform", "dcc"}};
}

std::string recorded_key(const RunRequest& req, bool traced) {
  return req.key_hash_hex() + (traced ? " 1" : " 0");
}

std::map<std::string, Recorded> load_recorded(const std::string& root) {
  const std::string path = root + "/perfbench/recorded.tsv";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::map<std::string, Recorded> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string hash, traced, elapsed;
    Recorded r;
    if (!(ls >> hash >> traced >> elapsed >> r.events)) {
      throw std::runtime_error(path + ": malformed line: " + line);
    }
    r.elapsed_s = std::strtod(elapsed.c_str(), nullptr);
    out[hash + " " + traced] = r;
  }
  return out;
}

const cirrus::valid::RefMetric* find_pin(const cirrus::valid::ReferenceSet& ref,
                                         const std::string& target, const std::string& name,
                                         const std::string& platform) {
  for (const auto& m : ref.metrics) {
    if (m.target == target && m.name == name && m.platform == platform) return &m;
  }
  return nullptr;
}

/// Everything the set-up phase prepares for the timed passes.
struct Prepared {
  std::vector<SimJob> jobs;
  std::vector<RunRequest> reqs;
  std::map<std::string, Recorded> recorded;
  cirrus::valid::ReferenceSet pins;
};

Prepared prepare(const RunArgs& args) {
  Prepared p;
  p.jobs = jobs_for(args.workload);
  for (const auto& j : p.jobs) {
    p.reqs.push_back(parse_kvs(j.kvs));
    (void)cirrus::plat::by_name(p.reqs.back().resolved_platform());
  }
  p.recorded = load_recorded(args.root);
  p.pins = cirrus::valid::ReferenceSet::load(args.root + "/src/valid/reference/critpath.ref");
  return p;
}

/// One job through serve::execute (plus critpath and export when traced),
/// checked against its recorded values and pins.
struct JobRun {
  double execute_s = 0, critpath_s = 0, export_s = 0;
  double total_s = 0;
  std::uint64_t trace_events = 0, spans = 0, export_bytes = 0;
  std::uint64_t fiber_switches = 0, heap_depth_hwm = 0;
  double held_bytes = 0;
  double elapsed_s = 0;
  std::uint64_t events = 0;
};

JobRun run_job(const Prepared& p, std::size_t i, bool telemetry, bool traced, Tally& tally,
               LayerCounts* counts, SpanLog* spans, int parent) {
  const SimJob& job = p.jobs[i];
  const RunRequest& req = p.reqs[i];
  serve::ExecOptions exec;
  exec.enable_trace = traced;
  exec.telemetry.enabled = telemetry;
  JobRun r;
  const auto before = counts != nullptr ? global_snapshot() : std::map<std::string, std::uint64_t>{};
  const double heap0 = heap_in_use_bytes();
  const auto t0 = Clock::now();
  serve::RunOutcome out;
  {
    Scoped s(spans, "execute", parent);
    out = serve::execute(req, exec);
  }
  r.execute_s = seconds_since(t0);
  r.held_bytes = heap_in_use_bytes() - heap0;
  const auto& res = out.result;
  r.elapsed_s = res.elapsed_seconds;
  r.events = res.events_processed;
  if (counts != nullptr) counts->add_global(before, global_snapshot());
  if (res.telemetry) {
    for (const auto& [name, v] : res.telemetry->registry.counter_values()) {
      if (name == "sim_fiber_switches") r.fiber_switches = v;
      if (name == "sim_heap_depth_hwm") r.heap_depth_hwm = v;
    }
  }

  std::string why;
  bool ok = true;
  const auto rec = p.recorded.find(recorded_key(req, traced));
  if (rec == p.recorded.end()) {
    ok = false;
    why += " no recorded values";
  } else {
    ok = check_recorded(rec->second, r.elapsed_s, r.events, &why) && ok;
  }
  if (req.execute) {
    const auto v = res.values.find("verified");
    if (v == res.values.end() || v->second != 1.0) {
      ok = false;
      why += " NPB verification failed";
    }
  }
  if (!job.pin_target.empty() && !traced) {
    if (const auto* pin = find_pin(p.pins, job.pin_target, "blame.makespan", job.pin_platform)) {
      ok = check_pin(*pin, r.elapsed_s, &why) && ok;
    }
  }
  if (traced) {
    if (!res.trace) {
      ok = false;
      why += " no trace";
    } else {
      r.trace_events = res.trace->size();
      r.spans = res.spans ? res.spans->size() : 0;
      const auto tc = Clock::now();
      critpath::Blame blame;
      {
        Scoped s(spans, "critpath", parent);
        blame = critpath::attribute(*res.trace, res.spans.get());
      }
      r.critpath_s = seconds_since(tc);
      const auto frac = blame.fractions();
      ok = check_blame_sum({frac.begin(), frac.end()}, &why) && ok;
      if (!job.pin_target.empty()) {
        for (int c = 0; c < critpath::kNumCategories; ++c) {
          const auto cat = static_cast<critpath::Category>(c);
          if (const auto* pin = find_pin(p.pins, job.pin_target,
                                         std::string("blame.") + critpath::slug(cat),
                                         job.pin_platform)) {
            ok = check_pin(*pin, frac[static_cast<std::size_t>(c)], &why) && ok;
          }
        }
        if (const auto* pin =
                find_pin(p.pins, job.pin_target, "blame.makespan", job.pin_platform)) {
          ok = check_pin(*pin, cirrus::sim::to_seconds(blame.makespan), &why) && ok;
        }
      }
      if (job.exported) {
        const auto te = Clock::now();
        std::string json;
        {
          Scoped s(spans, "export", parent);
          json = cirrus::obs::enriched_chrome_json(res.trace.get(), nullptr, res.spans.get(),
                                                   res.sched_spans.get());
        }
        r.export_s = seconds_since(te);
        r.export_bytes = json.size();
        while (!json.empty() && std::isspace(static_cast<unsigned char>(json.back()))) {
          json.pop_back();
        }
        if (json.size() < 2 || json.front() != '[' || json.back() != ']') {
          ok = false;
          why += " export is not a JSON array";
        }
      }
    }
  }
  r.total_s = seconds_since(t0);
  tally.record(ok, job.label + ":" + why);
  return r;
}

void print_job(const SimJob& job, const JobRun& r) {
  std::printf("# job %-34s %9.1f ms  elapsed %.6f s  events %llu\n", job.label.c_str(),
              r.total_s * 1e3, r.elapsed_s, static_cast<unsigned long long>(r.events));
}

Outcome run_untraced(const RunArgs& args) {
  Outcome o;
  const Prepared p = prepare(args);
  const double setup_s = setup_elapsed(args);
  if (args.setup_only) {
    o.metrics.set("setup_s", setup_s, "s");
    return o;
  }
  // The job list runs back to back, pass after pass, for at least
  // kMinPasses passes and at least --seconds; a pass takes 6-13 s on a
  // 4-core box, so --seconds 30 gives three to five. wall_s is the sum over the
  // list of each job's median time: on a shared host a burst of neighbour
  // load slows one job in one pass by up to 50%, and the first pass runs in
  // a cold process (CG.A.8/vayu 4.5 s cold, 3.0 s warm). A per-job median
  // drops both; the median of whole-pass sums keeps every burst that falls
  // into the middle pass.
  constexpr int kMinPasses = 3;
  std::vector<std::vector<double>> job_s(p.jobs.size());
  const auto t_start = Clock::now();
  int n_passes = 0;
  while (n_passes < kMinPasses || seconds_since(t_start) < args.seconds) {
    for (std::size_t i = 0; i < p.jobs.size(); ++i) {
      const JobRun r = run_job(p, i, false, p.jobs[i].traced, o.tally, nullptr, nullptr, -1);
      job_s[i].push_back(r.total_s);
      if (n_passes == 0) print_job(p.jobs[i], r);
    }
    ++n_passes;
  }

  double wall_s = 0;
  for (std::size_t i = 0; i < p.jobs.size(); ++i) {
    const double med = median(job_s[i]);
    wall_s += med;
    std::printf("# median %-34s %9.1f ms\n", p.jobs[i].label.c_str(), med * 1e3);
  }
  std::printf("# %d passes of %zu jobs\n", n_passes, p.jobs.size());
  o.metrics.set("wall_s", wall_s, "s");
  o.metrics.set("setup_s", setup_median(args, setup_s), "s");
  o.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
  return o;
}

/// A small serve load for the model- and execute-mode workloads' traced
/// run, so their serve-layer figures exist (and stay flat).
ServeSpec serve_probe_spec() {
  ServeSpec s;
  for (const char* bench : {"CG", "EP", "IS", "MG"}) {
    s.hot.push_back({{"bench", bench}, {"class", "S"}, {"np", "4"}});
  }
  s.alias_base = s.hot;
  s.seconds = 1.0;
  return s;
}

Outcome run_traced(const RunArgs& args) {
  Outcome o;
  Metrics& m = o.metrics;
  SpanLog log;
  const Prepared p = prepare(args);
  const int root = log.open("workload", -1);
  LayerCounts counts;
  double execute_s = 0;
  TraceCost tc;
  std::map<std::string, double> kernel_ms;
  double kernel_total_s = 0;
  for (std::size_t i = 0; i < p.jobs.size(); ++i) {
    const SimJob& job = p.jobs[i];
    // Each job's twin runs next to it, first on every other job, so neither
    // side always runs first: sim-traced times the same configuration
    // untraced (the tracing overhead), sim-execute the model-mode twin (the
    // kernel time), both with the same telemetry as the job itself.
    const bool twin_first = i % 2 == 1;
    double twin_s = 0;
    const auto run_twin = [&] {
      if (args.workload == "sim-traced") {
        twin_s = run_job(p, i, true, false, o.tally, nullptr, &log, root).execute_s;
      } else if (args.workload == "sim-execute") {
        RunRequest twin = p.reqs[i];
        twin.execute = false;
        serve::ExecOptions exec;
        exec.telemetry.enabled = true;
        const auto t0 = Clock::now();
        {
          Scoped s(&log, "execute", root);
          (void)serve::execute(twin, exec);
        }
        twin_s = seconds_since(t0);
      }
    };
    if (twin_first) run_twin();
    const JobRun r = run_job(p, i, true, job.traced, o.tally, &counts, &log, root);
    if (!twin_first) run_twin();
    execute_s += r.execute_s;
    counts.fiber_switches += r.fiber_switches;
    counts.heap_depth_hwm = std::max(counts.heap_depth_hwm, r.heap_depth_hwm);
    std::printf("# serve.execute_ms.%s %.3f\n", job.label.c_str(), r.execute_s * 1e3);
    if (job.traced) {
      tc.traced_s += r.execute_s;
      tc.untraced_s += twin_s;
      tc.critpath_s += r.critpath_s;
      tc.export_s += r.export_s;
      tc.trace_events += static_cast<double>(r.trace_events);
      tc.spans += static_cast<double>(r.spans);
      tc.held_bytes += r.held_bytes;
      tc.export_bytes += static_cast<double>(r.export_bytes);
      if (job.exported) tc.export_events += static_cast<double>(r.trace_events);
    }
    if (args.workload == "sim-execute") {
      const double k = r.execute_s - twin_s;
      kernel_ms[p.reqs[i].bench] = k * 1e3;
      kernel_total_s += k;
    }
  }
  if (args.workload != "sim-traced") {
    tc = trace_cost_probe(parse_kvs(trace_probe_job(args.workload)), o.tally, &log, root);
  }
  if (args.workload != "sim-execute") {
    Scoped s(&log, "execute", root);
    kernel_ms = kernel_probe_ms(o.tally);
  }
  for (const auto& [bench, ms] : kernel_ms) m.set("npb.kernel_ms." + bench, ms, "ms");
  m.set("npb.kernel_share", execute_s > 0 ? kernel_total_s / execute_s : 0, "fraction");

  std::vector<KVs> job_kvs;
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < p.jobs.size(); ++i) {
    job_kvs.push_back(p.jobs[i].kvs);
    keys.push_back(p.reqs[i].canonical_key());
  }
  ProbeResults probes;
  std::pair<double, double> cache_us;
  double parse_us = 0;
  {
    Scoped s(&log, "probes", root);
    probes = run_layer_probes(std::max<std::uint64_t>(counts.heap_depth_hwm, 16));
    cache_us = cache_probe(keys, 600);
    parse_us = request_parse_probe(job_kvs);
  }
  ServeResult sr;
  {
    Scoped s(&log, "serve", root);
    sr = run_serve_load(serve_probe_spec(), args.seed, o.tally);
  }
  sr.cache_put_us = cache_us.first;
  sr.cache_get_us = cache_us.second;
  sr.parse_us = parse_us;

  add_count_metrics(counts, execute_s, m);
  add_probe_metrics(probes, counts, execute_s, m);
  add_trace_cost_metrics(tc, m);
  add_serve_metrics(sr, m);
  m.set("trace.pass_execute_s", execute_s, "s");
  log.close(root);
  add_self_time_metrics(log, m);
  return o;
}

}  // namespace

bool is_sim_workload(const std::string& name) {
  return name == "sim-paper" || name == "sim-execute" || name == "sim-traced";
}

Outcome run_sim_workload(const RunArgs& args) {
  return args.trace ? run_traced(args) : run_untraced(args);
}

int record_table() {
  std::printf("# Recorded virtual results at request seed 1: <key-hash> <traced> "
              "<elapsed_s> <events> <job>\n");
  std::map<std::string, bool> seen;
  for (const char* w : {"sim-paper", "sim-execute", "sim-traced"}) {
    for (const auto& job : jobs_for(w)) {
      const RunRequest req = parse_kvs(job.kvs);
      // Traced jobs are also run untraced (the tracing-overhead twin).
      for (const bool traced : {false, job.traced}) {
        const std::string key = recorded_key(req, traced);
        if (seen[key]) continue;
        seen[key] = true;
        serve::ExecOptions exec;
        exec.enable_trace = traced;
        const auto out = serve::execute(req, exec);
        std::printf("%s %.17g %llu %s\n", key.c_str(), out.result.elapsed_seconds,
                    static_cast<unsigned long long>(out.result.events_processed),
                    job.label.c_str());
        std::fflush(stdout);
      }
    }
  }
  return 0;
}

}  // namespace perfbench
