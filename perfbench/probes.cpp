// Layer probes: each layer timed from outside through its public API, and
// the metric blocks of the traced run built from probes and counts.
//
// The split of a workload's simulator time is computed, not measured: probe
// cost per unit x the workload's count of that unit. Whatever the probes do
// not explain is reported as `split.unattributed_share`, a lower bound on
// the time spent above the engine, fiber and message layers.
#include <algorithm>
#include <cstdio>

#include "mpi/minimpi.hpp"
#include "obs/critpath.hpp"
#include "obs/trace_export.hpp"
#include "platform/platform.hpp"
#include "serve/cache.hpp"
#include "serve/service.hpp"
#include "sim/engine.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace mpi = cirrus::mpi;
namespace sim = cirrus::sim;

namespace {

constexpr int kReps = 5;

/// Median wall time of `reps` runs of `fn`.
template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_since(t0));
  }
  return median(t);
}

/// Re-arming callback: keeps the pending-event count at its initial depth
/// until the budget is spent.
struct Wave {
  sim::Engine& eng;
  std::int64_t remaining;
  sim::SimTime spacing;
  void fire() {
    if (remaining-- > 0) eng.schedule_at(eng.now() + spacing, [this] { fire(); });
  }
};

double engine_event_ns(std::uint64_t depth) {
  const auto pending = static_cast<std::int64_t>(depth);
  const std::int64_t budget = std::max<std::int64_t>(1 << 20, 8 * pending);
  std::uint64_t events = 0;
  const double s = median_seconds(kReps, [&] {
    sim::Engine eng;
    Wave w{eng, budget, static_cast<sim::SimTime>(pending)};
    for (std::int64_t i = 0; i < pending; ++i) eng.schedule_at(i, [&w] { w.fire(); });
    eng.run();
    events = eng.events_processed();
  });
  return s * 1e9 / static_cast<double>(events);
}

double fiber_switch_ns() {
  constexpr int kSteps = 200000;
  std::uint64_t switches = 0;
  const double s = median_seconds(kReps, [&] {
    sim::Engine eng;
    for (int p = 0; p < 2; ++p) {
      eng.spawn("p", [](sim::Process& self) {
        for (int i = 0; i < kSteps; ++i) self.advance(10);
      });
    }
    eng.run();
    switches = eng.stats().fiber_switches;
  });
  return s * 1e9 / static_cast<double>(switches);
}

struct Ping {
  double ns_per_msg = 0, events_per_msg = 0, switches_per_msg = 0, hops_per_msg = 0;
};

/// Rank 0 sends `msgs` messages of `bytes` to rank 1 on separate nodes.
Ping ping(std::size_t bytes, int msgs, bool fattree) {
  mpi::JobConfig cfg;
  cfg.platform = cirrus::plat::vayu();
  cfg.np = 2;
  cfg.max_ranks_per_node = 1;
  cfg.name = "ping";
  cfg.telemetry.enabled = true;
  if (fattree) {
    cfg.topology.kind = cirrus::topo::Kind::FatTree;
    cfg.topology.leaf_radix = 1;
  }
  std::vector<char> buf(bytes);
  mpi::JobResult res;
  const double s = median_seconds(kReps, [&] {
    res = mpi::run_job(cfg, [&](mpi::RankEnv& env) {
      auto& c = env.world();
      for (int i = 0; i < msgs; ++i) {
        if (c.rank() == 0) {
          c.send_bytes(1, 1, buf.data(), bytes);
        } else {
          c.recv_bytes(0, 1, nullptr, bytes);
        }
      }
    });
  });
  Ping p;
  p.ns_per_msg = s * 1e9 / msgs;
  p.events_per_msg = static_cast<double>(res.events_processed) / msgs;
  for (const auto& [name, v] : res.telemetry->registry.counter_values()) {
    if (name == "sim_fiber_switches") p.switches_per_msg = static_cast<double>(v) / msgs;
    if (name == "net_routed_hops") p.hops_per_msg = static_cast<double>(v) / msgs;
  }
  return p;
}

}  // namespace

ProbeResults run_layer_probes(std::uint64_t heap_depth) {
  ProbeResults r;
  r.event_ns = engine_event_ns(heap_depth);
  r.fiber_switch_ns = fiber_switch_ns();
  const Ping eager = ping(8, 20000, false);
  const Ping rdv = ping(128 * 1024, 20000, false);
  const Ping ft = ping(8, 20000, true);
  r.eager_msg_ns = eager.ns_per_msg;
  r.eager_events_per_msg = eager.events_per_msg;
  r.eager_switches_per_msg = eager.switches_per_msg;
  r.rendezvous_msg_ns = rdv.ns_per_msg;
  r.rendezvous_events_per_msg = rdv.events_per_msg;
  r.rendezvous_switches_per_msg = rdv.switches_per_msg;
  r.fattree_msg_ns = ft.ns_per_msg;
  r.fattree_hops_per_msg = ft.hops_per_msg;
  return r;
}

std::pair<double, double> cache_probe(const std::vector<std::string>& keys,
                                      std::size_t blob_bytes) {
  const std::string blob(blob_bytes, 'x');
  // About 200k gets (20k puts) per repetition, however many keys.
  const std::size_t rounds =
      std::clamp<std::size_t>(200000 / std::max<std::size_t>(keys.size(), 1), 10, 2000);
  std::size_t found = 0;
  cirrus::serve::ResultCache::Options opts;
  opts.capacity = std::max<std::size_t>(keys.size(), 1);
  std::vector<double> puts, gets;
  for (int rep = 0; rep < kReps; ++rep) {
    cirrus::serve::ResultCache cache(opts);
    auto t0 = Clock::now();
    for (std::size_t r = 0; r < rounds / 10; ++r) {
      for (const auto& k : keys) cache.put(k, blob);
    }
    puts.push_back(seconds_since(t0));
    t0 = Clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
      for (const auto& k : keys) found += cache.get(k).has_value() ? 1 : 0;
    }
    gets.push_back(seconds_since(t0));
  }
  if (found == 0) std::fprintf(stderr, "perfbench: cache probe found nothing\n");
  const auto n = static_cast<double>(keys.size());
  const auto r = static_cast<double>(rounds);
  return {median(puts) * 1e6 / (n * r / 10), median(gets) * 1e6 / (n * r)};
}

double request_parse_probe(const std::vector<KVs>& requests) {
  // At most about 100k parses per repetition, however many requests.
  const std::size_t rounds =
      std::clamp<std::size_t>(100000 / std::max<std::size_t>(requests.size(), 1), 1, 200);
  std::size_t bytes = 0;
  const double s = median_seconds(kReps, [&] {
    for (std::size_t r = 0; r < rounds; ++r) {
      for (const auto& kvs : requests) {
        cirrus::core::RunRequest req;
        std::string error;
        if (cirrus::core::RunRequest::parse(kvs, req, &error) && req.validate(&error)) {
          bytes += req.canonical_key().size();
        }
      }
    }
  });
  if (bytes == 0) std::fprintf(stderr, "perfbench: parse probe accepted nothing\n");
  return s * 1e6 / (static_cast<double>(requests.size() * rounds));
}

void add_count_metrics(const LayerCounts& c, double execute_s, Metrics& m) {
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  m.set("sim.events", n(c.events), "count");
  m.set("sim.callback_events", n(c.callback_events), "count");
  m.set("sim.fiber_switches", n(c.fiber_switches), "count");
  m.set("sim.heap_depth_hwm", n(c.heap_depth_hwm), "count");
  m.set("sim.events_per_s", execute_s > 0 ? n(c.events) / execute_s : 0, "1/s");
  m.set("mpi.sends_eager", n(c.sends_eager), "count");
  m.set("mpi.sends_rendezvous", n(c.sends_rendezvous), "count");
  m.set("mpi.unexpected_matches", n(c.unexpected_matches), "count");
  m.set("net.internode_transfers", n(c.internode_transfers), "count");
  m.set("net.control_messages", n(c.control_messages), "count");
  m.set("topo.routed_hops", n(c.routed_hops), "count");
  m.set("storage.ops", n(c.storage_ops), "count");
  m.set("storage.bytes", n(c.storage_bytes), "bytes");
}

void add_probe_metrics(const ProbeResults& p, const LayerCounts& c, double execute_s,
                       Metrics& m) {
  m.set("sim.probe.event_ns", p.event_ns, "ns");
  m.set("sim.probe.fiber_switch_ns", p.fiber_switch_ns, "ns");
  m.set("mpi.probe.eager_msg_ns", p.eager_msg_ns, "ns");
  m.set("mpi.probe.rendezvous_msg_ns", p.rendezvous_msg_ns, "ns");
  m.set("topo.probe.fattree_msg_ns", p.fattree_msg_ns, "ns");

  // Computed split: probe cost per unit x the workload's count of units.
  // A message's mpi/net share is its ping cost minus the engine events and
  // fiber switches it caused (those are charged to the engine and fiber).
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  const double engine = n(c.events) * p.event_ns;
  const double fiber = n(c.fiber_switches) * p.fiber_switch_ns;
  const auto own = [&](double msg_ns, double ev, double sw) {
    return std::max(0.0, msg_ns - ev * p.event_ns - sw * p.fiber_switch_ns);
  };
  const double eager =
      n(c.sends_eager) * own(p.eager_msg_ns, p.eager_events_per_msg, p.eager_switches_per_msg);
  const double rdv = n(c.sends_rendezvous) * own(p.rendezvous_msg_ns, p.rendezvous_events_per_msg,
                                                 p.rendezvous_switches_per_msg);
  const double per_hop = p.fattree_hops_per_msg > 0
                             ? std::max(0.0, p.fattree_msg_ns - p.eager_msg_ns) /
                                   p.fattree_hops_per_msg
                             : 0;
  const double topo = n(c.routed_hops) * per_hop;
  const double total_ns = execute_s * 1e9;
  const auto share = [&](double ns) { return total_ns > 0 ? ns / total_ns : 0; };
  m.set("split.engine_share", share(engine), "fraction");
  m.set("split.fiber_share", share(fiber), "fraction");
  m.set("split.mpi_eager_share", share(eager), "fraction");
  m.set("split.mpi_rendezvous_share", share(rdv), "fraction");
  m.set("split.topo_share", share(topo), "fraction");
  // Computed, lower bound: what the probes cannot explain.
  m.set("split.unattributed_share",
        std::max(0.0, 1.0 - share(engine + fiber + eager + rdv + topo)), "fraction");
}

TraceCost trace_cost_probe(const cirrus::core::RunRequest& req, Tally& tally, SpanLog* spans,
                           int parent) {
  TraceCost t;
  // Untraced and traced executes alternate; each side reports its median.
  cirrus::serve::ExecOptions exec;
  exec.enable_trace = true;
  cirrus::serve::RunOutcome out;
  std::vector<double> untraced, traced;
  for (int rep = 0; rep < 3; ++rep) {
    out = {};
    auto t0 = Clock::now();
    {
      Scoped s(spans, "execute", parent);
      (void)cirrus::serve::execute(req);
    }
    untraced.push_back(seconds_since(t0));
    const double heap0 = heap_in_use_bytes();
    t0 = Clock::now();
    {
      Scoped s(spans, "execute", parent);
      out = cirrus::serve::execute(req, exec);
    }
    traced.push_back(seconds_since(t0));
    t.held_bytes = heap_in_use_bytes() - heap0;
  }
  t.untraced_s = median(untraced);
  t.traced_s = median(traced);
  const auto& res = out.result;
  std::string why;
  bool ok = res.trace != nullptr;
  if (ok) {
    t.trace_events = static_cast<double>(res.trace->size());
    t.spans = res.spans ? static_cast<double>(res.spans->size()) : 0;
    auto t0 = Clock::now();
    cirrus::obs::critpath::Blame blame;
    {
      Scoped s(spans, "critpath", parent);
      blame = cirrus::obs::critpath::attribute(*res.trace, res.spans.get());
    }
    t.critpath_s = seconds_since(t0);
    const auto frac = blame.fractions();
    ok = check_blame_sum({frac.begin(), frac.end()}, &why);
    t0 = Clock::now();
    std::string json;
    {
      Scoped s(spans, "export", parent);
      json = cirrus::obs::enriched_chrome_json(res.trace.get(), nullptr, res.spans.get(),
                                               res.sched_spans.get());
    }
    t.export_s = seconds_since(t0);
    t.export_bytes = static_cast<double>(json.size());
    t.export_events = t.trace_events;
  }
  tally.record(ok, "trace probe " + req.canonical_key() + why);
  return t;
}

void add_trace_cost_metrics(const TraceCost& t, Metrics& m) {
  const double held_per = t.trace_events > 0 ? t.held_bytes / (t.trace_events + t.spans) : 0;
  m.set("ipm.trace_events", t.trace_events, "count");
  m.set("obs.spans", t.spans, "count");
  m.set("obs.trace_bytes_per_event", held_per, "bytes");
  m.set("obs.trace_overhead", t.untraced_s > 0 ? t.traced_s / t.untraced_s : 0, "ratio");
  m.set("obs.critpath_ms", t.critpath_s * 1e3, "ms");
  m.set("obs.export_ms", t.export_s * 1e3, "ms");
  m.set("obs.export_bytes_per_event", t.export_events > 0 ? t.export_bytes / t.export_events : 0,
        "bytes");
}

void add_self_time_metrics(const SpanLog& log, Metrics& m) {
  const auto self = log.self_seconds();
  for (const char* name : {"workload", "execute", "critpath", "export", "probes", "serve"}) {
    const auto it = self.find(name);
    m.set(std::string("self_s.") + name, it == self.end() ? 0.0 : it->second, "s");
  }
}

std::map<std::string, double> kernel_probe_ms(Tally& tally) {
  std::map<std::string, double> out;
  for (const char* bench : {"CG", "EP", "FT", "IS", "MG"}) {
    auto req = parse_kvs({{"bench", bench}, {"class", "S"}, {"np", "4"}, {"execute", "1"}});
    const auto run_exec = [&] {
      const auto o = cirrus::serve::execute(req);
      const auto v = o.result.values.find("verified");
      tally.record(v != o.result.values.end() && v->second == 1.0,
                   std::string("kernel probe ") + bench + " S.4 not verified");
    };
    // Short kernels get the median of three; EP at class S takes ~1.5 s.
    double exec_s = median_seconds(1, run_exec);
    if (exec_s < 0.2) exec_s = median_seconds(3, run_exec);
    req.execute = false;
    const double model_s = median_seconds(3, [&] { (void)cirrus::serve::execute(req); });
    out[bench] = (exec_s - model_s) * 1e3;
  }
  return out;
}

}  // namespace perfbench
