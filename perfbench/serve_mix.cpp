// serve-mix: an in-process serve::Service behind serve::HttpServer on
// loopback, driven by a seeded open-loop schedule.
//
// Each server starts with a fresh, cold cache (no disk spill, verify off)
// and pre-warms a hot set. The mix: hits on the hot set, cold misses on
// distinct class-S configurations of jittery platforms (seeded request
// seeds, so each really is a new result), inert-knob aliases of hot
// configurations (same result under a different key), a fixed handful of
// heavy misses and 1% /healthz; serve_mix_spec() says where each share
// comes from.
//
// The mix is ten seconds of traffic at the nominal rate, whatever --seconds
// says. --trace 0 replays its light requests (all but the heavy misses)
// back to back over one connection against fresh pre-warmed servers, for
// at least --seconds and at least kMinReplays replays; wall_s is the median
// replay. --trace 1 sends the mix as a seeded open loop over
// at most nproc keep-alive connections from one process, then a rate
// ladder. A request is timed from the moment it was due, so a stall charges
// every request queued behind it; the generator's own lateness is reported
// so a late generator is visible.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "serve/client.hpp"
#include "serve/http.hpp"
#include "serve/service.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace serve = cirrus::serve;

namespace {

/// Hit p99 limit (from due time) of the rate ladder behind
/// serve.sustainable_rps.
constexpr double kHitP99LimitMs = 5.0;

/// The nominal phase is sent in this many slices; latency_ms is the median
/// over slices (at 1000 req/s for 10 s, each slice's p99 has ten samples
/// beyond it).
constexpr std::size_t kSlices = 10;

/// Fewest closed-loop replays of the mix behind wall_s.
constexpr int kMinReplays = 3;

/// Requests per rung of the rate ladder.
constexpr double kRungRequests = 1000;

int connections() {
  return static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1U, 4U));
}

struct Planned {
  std::string kind;  ///< hit | cold | alias | heavy | healthz
  KVs kvs;           ///< empty for healthz
  double due_s = 0;
};

struct Done {
  int status = 0;
  std::string cache;  ///< X-Cirrus-Cache ("" for healthz)
  std::string body;
  double handle_ns = -1;  ///< traced runs: time inside Service::handle
  double due_s = 0, send_s = 0, done_s = 0;
};

std::string target_of(const Planned& p) {
  if (p.kind == "healthz") return "/healthz";
  std::string t = "/query?";
  for (std::size_t i = 0; i < p.kvs.size(); ++i) {
    if (i > 0) t += '&';
    t += p.kvs[i].first + "=" + p.kvs[i].second;
  }
  return t;
}

KVs cold_config(std::uint64_t seed, std::size_t i) {
  static const char* benches[] = {"EP", "CG", "IS", "FT", "MG"};
  static const char* platforms[] = {"dcc", "ec2"};
  return {{"bench", benches[i % 5]},
          {"class", "S"},
          {"np", "4"},
          {"platform", platforms[(i / 5) % 2]},
          {"seed", std::to_string(1000003ULL * (seed % 1000000) + 2 + i)}};
}

/// The i-th inert-knob alias of a base configuration. Every alias also sets
/// its own `requeue` (inert without faults), so no two aliases share a key:
/// each is a first touch that recomputes a result already cached.
KVs alias_config(const std::vector<KVs>& bases, std::size_t i) {
  KVs kvs = bases[(i / 5) % bases.size()];
  switch (i % 5) {
    case 0:
      kvs.emplace_back("oversub", "4");
      break;
    case 1:
      kvs.emplace_back("leaf", "8");
      break;
    case 2:
      kvs.emplace_back("placement", "scatter");
      break;
    case 3:
      kvs.emplace_back("rpn", "0");
      break;
    default:
      kvs.emplace_back("sched", "calendar");
      break;
  }
  kvs.emplace_back("requeue", std::to_string(5 + i));
  return kvs;
}

std::vector<Planned> plan_mix(const ServeSpec& spec, std::uint64_t seed) {
  SplitMix rng{seed * 0x2545F4914F6CDD1DULL + 17};
  const auto n = static_cast<std::size_t>(std::llround(spec.rate * spec.seconds));
  const auto share = [](double frac, std::size_t of) {
    return static_cast<std::size_t>(std::llround(frac * static_cast<double>(of)));
  };
  const std::size_t healthz = share(spec.healthz_frac, n);
  const std::size_t misses = share(spec.miss_frac, n - healthz);
  const std::size_t aliases = share(spec.alias_share, misses);
  std::vector<std::string> kinds;
  kinds.insert(kinds.end(), healthz, "healthz");
  kinds.insert(kinds.end(), misses - aliases, "cold");
  kinds.insert(kinds.end(), aliases, "alias");
  if (kinds.size() < n) kinds.insert(kinds.end(), n - kinds.size(), "hit");
  rng.shuffle(kinds);
  // Poisson arrivals conditioned on n requests in the window: sorted
  // uniform due times, so every seed offers the same load for the same time.
  std::vector<double> due(kinds.size());
  for (double& d : due) d = rng.uniform() * spec.seconds;
  std::sort(due.begin(), due.end());
  std::vector<Planned> plan;
  std::size_t cold = 0, alias = 0;
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    Planned p;
    p.kind = kinds[i];
    p.due_s = due[i];
    if (p.kind == "hit") p.kvs = spec.hot[rng.next() % spec.hot.size()];
    if (p.kind == "cold") p.kvs = cold_config(seed, cold++);
    if (p.kind == "alias") p.kvs = alias_config(spec.alias_base, alias++);
    plan.push_back(std::move(p));
  }
  // Heavy misses evenly spaced, so no two hold connections at once.
  for (std::size_t k = 0; k < spec.heavy.size(); ++k) {
    Planned p{"heavy", spec.heavy[k],
              spec.seconds * (static_cast<double>(k) + 0.5) / static_cast<double>(spec.heavy.size())};
    plan.insert(std::upper_bound(plan.begin(), plan.end(), p,
                                 [](const Planned& a, const Planned& b) { return a.due_s < b.due_s; }),
                std::move(p));
  }
  return plan;
}

/// Hits on the hot set plus ~1% /healthz at `rate` for `seconds`.
std::vector<Planned> plan_hits(const ServeSpec& spec, double rate, double seconds,
                               std::uint64_t seed) {
  ServeSpec s = spec;
  s.rate = rate;
  s.seconds = seconds;
  s.miss_frac = 0;
  s.heavy.clear();
  return plan_mix(s, seed);
}

/// Sends `plan` on its schedule over `connections()` keep-alive clients.
std::vector<Done> send_plan(const std::vector<Planned>& plan, int port, int conns = connections()) {
  std::vector<Done> done(plan.size());
  std::atomic<std::size_t> next{0};
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const auto worker = [&] {
    // Wake at the due time, not up to the default 50 us timer slack later.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    serve::HttpClient client;
    if (!client.connect(port)) return;
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= plan.size()) break;
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(plan[i].due_s));
      std::this_thread::sleep_until(due);
      Done& d = done[i];
      d.due_s = plan[i].due_s;
      d.send_s = std::chrono::duration<double>(Clock::now() - start).count();
      const auto resp = client.request("GET", target_of(plan[i]));
      d.done_s = std::chrono::duration<double>(Clock::now() - start).count();
      if (!resp) continue;
      d.status = resp->status;
      d.body = resp->body;
      if (const auto c = resp->headers.find("x-cirrus-cache"); c != resp->headers.end()) {
        d.cache = c->second;
      }
      if (const auto h = resp->headers.find("x-bench-handle-ns"); h != resp->headers.end()) {
        d.handle_ns = std::strtod(h->second.c_str(), nullptr);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  return done;
}

/// Sends `plan` in `slices` consecutive parts, back to back, each over fresh
/// connections (so fresh server threads): hit latency depends on where the
/// scheduler places the client and server threads, so a run samples several
/// placements instead of one. Times are relative to the start of the plan.
std::vector<Done> send_in_slices(const std::vector<Planned>& plan, int port, std::size_t slices) {
  std::vector<Done> done;
  double offset = 0;
  for (std::size_t w = 0; w < slices; ++w) {
    const auto b = plan.begin() + static_cast<std::ptrdiff_t>(plan.size() * w / slices);
    const auto e = plan.begin() + static_cast<std::ptrdiff_t>(plan.size() * (w + 1) / slices);
    if (b == e) continue;
    std::vector<Planned> part(b, e);
    const double base = part.front().due_s;
    for (auto& p : part) p.due_s -= base;
    std::vector<Done> got = send_plan(part, port);
    double end = 0;
    for (auto& d : got) {
      end = std::max(end, d.done_s);
      d.due_s += offset;
      d.send_s += offset;
      d.done_s += offset;
    }
    offset += end;
    done.insert(done.end(), got.begin(), got.end());
  }
  return done;
}

/// p99 of the service's queue-wait histogram (log2 buckets, microseconds)
/// from its Prometheus text, in ms: the upper bound of the bucket holding
/// the 99th percentile.
double gate_wait_p99_ms(const std::string& text) {
  std::vector<std::pair<double, double>> buckets;  // (le, cumulative)
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("serve_queue_wait_us_bucket", 0) != 0) continue;
    const auto le = line.find("le=\"");
    const auto sp = line.rfind(' ');
    if (le == std::string::npos || sp == std::string::npos) continue;
    const std::string bound = line.substr(le + 4, line.find('"', le + 4) - le - 4);
    const double b = bound == "+Inf" ? INFINITY : std::strtod(bound.c_str(), nullptr);
    buckets.emplace_back(b, std::strtod(line.c_str() + sp + 1, nullptr));
  }
  if (buckets.empty() || buckets.back().second <= 0) return 0;
  const double target = 0.99 * buckets.back().second;
  for (const auto& [le, cum] : buckets) {
    if (cum >= target) return std::isinf(le) ? 0 : le / 1e3;
  }
  return 0;
}

/// A running service and its HTTP front end (declared after the service it
/// calls into, so it stops first).
struct Server {
  std::unique_ptr<serve::Service> service;
  std::unique_ptr<serve::HttpServer> http;

  void stop() {
    http.reset();
    service.reset();
  }
};

Server start_server(bool trace) {
  Server s;
  serve::Service::Options so;
  so.cache.capacity = 1 << 16;
  so.slow_ms = 0;
  s.service = std::make_unique<serve::Service>(so);
  serve::Service* svc = s.service.get();
  serve::HttpServer::Handler handler;
  if (trace) {
    // The benchmark's handler around Service::handle: its duration rides
    // back to the client, which splits latency into inside and outside.
    handler = [svc](const serve::HttpRequest& req) {
      const auto t0 = Clock::now();
      serve::HttpResponse resp = svc->handle(req);
      const double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
      resp.headers.emplace_back("X-Bench-Handle-Ns", std::to_string(ns));
      return resp;
    };
  } else {
    handler = [svc](const serve::HttpRequest& req) { return svc->handle(req); };
  }
  s.http = std::make_unique<serve::HttpServer>(serve::HttpServer::Options{}, handler);
  std::string error;
  if (!s.http->start(&error)) throw std::runtime_error("perfbench: server start: " + error);
  return s;
}

/// A fresh server with the hot set pre-warmed over one connection.
Server start_warm(const ServeSpec& spec, bool trace) {
  Server server = start_server(trace);
  serve::HttpClient client;
  if (!client.connect(server.http->port())) throw std::runtime_error("perfbench: connect");
  for (const auto& kvs : spec.hot) {
    const auto resp = client.request("GET", target_of(Planned{"hit", kvs, 0}));
    if (!resp || resp->status != 200) throw std::runtime_error("perfbench: pre-warm failed");
  }
  return server;
}

/// Checks responses against serve::query_json, computed once per distinct
/// canonical key, outside any timed window.
class Checker {
 public:
  std::string key_of(const KVs& kvs) {
    const auto req = parse_kvs(kvs);
    std::string key = req.canonical_key();
    if (reference_.count(key) == 0) reference_[key] = serve::query_json(req);
    return key;
  }
  const std::string& blob(const std::string& key) const { return reference_.at(key); }

  /// Computes the reference of every distinct key in `plan` up front, on
  /// connections() threads (Service runs executes concurrently too).
  void prepare(const std::vector<Planned>& plan) {
    std::vector<std::pair<std::string, cirrus::core::RunRequest>> todo;
    for (const auto& p : plan) {
      if (p.kind == "healthz") continue;
      auto req = parse_kvs(p.kvs);
      auto key = req.canonical_key();
      if (reference_.emplace(key, std::string()).second) todo.emplace_back(key, std::move(req));
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < connections(); ++t) {
      pool.emplace_back([&] {
        for (std::size_t i = next++; i < todo.size(); i = next++) {
          reference_.at(todo[i].first) = serve::query_json(todo[i].second);
        }
      });
    }
    for (auto& t : pool) t.join();
  }
  [[nodiscard]] const std::map<std::string, std::string>& reference() const { return reference_; }

  void check(const Planned& p, const Done& d, Tally& tally) {
    std::string why;
    bool ok = d.status == 200;
    if (!ok) why = " status " + std::to_string(d.status);
    if (ok && p.kind == "healthz") {
      ok = d.body == R"({"status":"ok"})";
      if (!ok) why = " healthz body " + d.body;
    } else if (ok) {
      ok = check_blob(d.body, blob(key_of(p.kvs)), &why);
    }
    tally.record(ok, "serve " + p.kind + " " + target_of(p) + why);
  }

 private:
  std::map<std::string, std::string> reference_;  // canonical key -> blob
};

}  // namespace

ServeResult run_serve_load(const ServeSpec& spec, std::uint64_t seed, Tally& tally) {
  ServeResult r;
  Server server = start_warm(spec, true);
  const auto stats0 = server.service->cache().stats();

  const std::vector<Planned> plan = plan_mix(spec, seed);
  const std::vector<Done> done = send_in_slices(plan, server.http->port(), kSlices);
  const auto stats1 = server.service->cache().stats();
  r.gate_wait_p99_ms = gate_wait_p99_ms(server.service->metrics_text());

  // Rate ladder: hits only, each rung the same number of requests, rising
  // by sqrt(2) until hit p99 (from due time, so a growing backlog shows)
  // breaks the limit or a request fails.
  std::vector<std::pair<std::vector<Planned>, std::vector<Done>>> rungs;
  for (double rate = 1000; rate <= 64000; rate *= std::sqrt(2.0)) {
    auto rplan = plan_hits(spec, rate, kRungRequests / rate, seed + rungs.size());
    auto rdone = send_plan(rplan, server.http->port());
    std::vector<double> hit_ms;
    bool ok = true;
    for (std::size_t i = 0; i < rdone.size(); ++i) {
      ok = ok && rdone[i].status == 200;
      if (rplan[i].kind == "hit") hit_ms.push_back((rdone[i].done_s - rdone[i].due_s) * 1e3);
    }
    rungs.emplace_back(std::move(rplan), std::move(rdone));
    if (!ok || percentile(hit_ms, 0.99) > kHitP99LimitMs) break;
    r.sustainable_rps = rate;
  }
  server.stop();  // before the correctness pass competes for CPU

  // Correctness: every 200 result byte-equals query_json.
  Checker checker;
  for (const auto& kvs : spec.hot) (void)checker.key_of(kvs);
  checker.prepare(plan);
  for (std::size_t i = 0; i < plan.size(); ++i) checker.check(plan[i], done[i], tally);
  for (const auto& [rplan, rdone] : rungs) {
    for (std::size_t i = 0; i < rplan.size(); ++i) checker.check(rplan[i], rdone[i], tally);
  }

  // Latencies (from due time) and the inside/outside split.
  double hit_rtt = 0, hit_inside = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Done& d = done[i];
    const double ms = (d.done_s - d.due_s) * 1e3;
    r.all_ms.push_back(ms);
    r.late_ms.push_back((d.send_s - d.due_s) * 1e3);
    const double rtt_ns = (d.done_s - d.send_s) * 1e9;
    if (plan[i].kind == "healthz") {
      r.healthz_rtt_us.push_back(rtt_ns / 1e3);
    } else if (d.cache == "hit") {
      r.hit_ms.push_back(ms);
      if (d.handle_ns >= 0) {
        r.hit_handle_us.push_back(d.handle_ns / 1e3);
        hit_rtt += rtt_ns;
        hit_inside += d.handle_ns;
      }
    } else if (d.cache == "miss") {
      r.miss_ms.push_back(ms);
      if (d.handle_ns >= 0) r.miss_handle_ms.push_back(d.handle_ns / 1e6);
    }
  }
  r.hit_outside_frac = hit_rtt > 0 ? 1.0 - hit_inside / hit_rtt : 0;
  const double hits = static_cast<double>(stats1.hits - stats0.hits);
  const double misses = static_cast<double>(stats1.misses - stats0.misses);
  r.hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0;

  // Redundant misses: a computed result byte-equal to one already returned
  // under another key, in completion order.
  std::vector<std::size_t> by_done(plan.size());
  for (std::size_t i = 0; i < by_done.size(); ++i) by_done[i] = i;
  std::sort(by_done.begin(), by_done.end(),
            [&](std::size_t a, std::size_t b) { return done[a].done_s < done[b].done_s; });
  std::map<std::string, std::string> owner;  // blob -> first key
  for (const auto& kvs : spec.hot) {
    const std::string key = checker.key_of(kvs);
    owner.emplace(checker.blob(key), key);
  }
  std::map<std::string, std::uint64_t> redundant_by_kind;
  std::set<std::string> computed;
  for (const std::size_t i : by_done) {
    if (done[i].cache != "miss") continue;
    ++r.misses;
    const std::string key = checker.key_of(plan[i].kvs);
    if (computed.insert(key).second) r.miss_configs.push_back(plan[i].kvs);
    const std::string blob = envelope_result(done[i].body);
    const auto [it, fresh] = owner.emplace(blob, key);
    if (!fresh && it->second != key) {
      ++r.redundant_misses;
      ++redundant_by_kind[plan[i].kind];
    }
  }
  r.redundant_miss_frac =
      r.misses > 0 ? static_cast<double>(r.redundant_misses) / static_cast<double>(r.misses) : 0;

  std::size_t blob_bytes = 0;
  for (const auto& [key, blob] : checker.reference()) blob_bytes += blob.size();
  const std::size_t n_keys = checker.reference().size();
  r.mean_blob_bytes = n_keys == 0 ? 0 : blob_bytes / n_keys;

  std::printf("# serve: %zu requests over %d connections at %.0f/s: %zu hits, %zu misses "
              "(%llu redundant:",
              plan.size(), connections(), spec.rate, r.hit_ms.size(), r.miss_ms.size(),
              static_cast<unsigned long long>(r.redundant_misses));
  for (const auto& [kind, n] : redundant_by_kind) {
    std::printf(" %s %llu", kind.c_str(), static_cast<unsigned long long>(n));
  }
  std::printf("), %zu healthz\n", r.healthz_rtt_us.size());
  std::printf("# serve: latency_ms p50 %.3f p99 %.3f (n=%zu); hit p99 %.3f (n=%zu); "
              "miss p50 %.3f p99 %.3f (n=%zu); generator late p99 %.3f ms\n",
              percentile(r.all_ms, 0.5), percentile(r.all_ms, 0.99), r.all_ms.size(),
              percentile(r.hit_ms, 0.99), r.hit_ms.size(), percentile(r.miss_ms, 0.5),
              percentile(r.miss_ms, 0.99), r.miss_ms.size(), percentile(r.late_ms, 0.99));
  std::printf("# serve: sustainable %.0f req/s (hit p99 limit %.1f ms, %zu rungs)\n",
              r.sustainable_rps, kHitP99LimitMs, rungs.size());
  return r;
}

void add_serve_metrics(const ServeResult& r, Metrics& m) {
  m.set("serve.latency_ms.p50", windowed_percentile(r.all_ms, kSlices, 0.50), "ms");
  m.set("serve.latency_ms.p99", windowed_percentile(r.all_ms, kSlices, 0.99), "ms");
  m.set("serve.hit_latency_ms.p99", percentile(r.hit_ms, 0.99), "ms");
  m.set("serve.miss_latency_ms.p99", percentile(r.miss_ms, 0.99), "ms");
  m.set("serve.sustainable_rps", r.sustainable_rps, "1/s");
  m.set("serve.handle_us.hit.p50", percentile(r.hit_handle_us, 0.5), "us");
  m.set("serve.handle_us.hit.p99", percentile(r.hit_handle_us, 0.99), "us");
  m.set("serve.outside_handle_frac.hit", r.hit_outside_frac, "fraction");
  m.set("serve.handle_ms.miss.p50", percentile(r.miss_handle_ms, 0.5), "ms");
  m.set("serve.handle_ms.miss.p99", percentile(r.miss_handle_ms, 0.99), "ms");
  m.set("serve.healthz_rtt_us.p99", percentile(r.healthz_rtt_us, 0.99), "us");
  m.set("serve.gate_wait_ms.p99", r.gate_wait_p99_ms, "ms");
  m.set("serve.cache.hit_ratio", r.hit_ratio, "fraction");
  m.set("serve.cache.redundant_miss_frac", r.redundant_miss_frac, "fraction");
  m.set("serve.cache.get_us", r.cache_get_us, "us");
  m.set("serve.cache.put_us", r.cache_put_us, "us");
  m.set("serve.loadgen_late_ms.p99", percentile(r.late_ms, 0.99), "ms");
  m.set("core.request_parse_us", r.parse_us, "us");
}

namespace {

/// The serve-mix traffic. No recorded request log exists. The hot set and
/// the hit share follow bench/serve_loadgen.cpp: its eight hot
/// configurations and its default hot_pct=90 (90% of /query requests hit
/// the hot set, 10% miss). The rest are assumptions:
/// - 1% /healthz, a small steady liveness-probe load;
/// - the misses split evenly between cold misses and inert-knob aliases (no
///   data either way). The aliases are of the two hot configurations on
///   which every alias knob is inert (npb on the default crossbar, no
///   faults);
/// - four heavy misses per mix, MetUM and Chaste at np 8 on platforms the
///   hot set does not hold;
/// - 1000 req/s nominal offered rate, about a third of the 3029 req/s
///   serve_loadgen measured closed-loop in BENCH_serve.json, so the nominal
///   point sits below saturation; the trace run's rate ladder finds the
///   knee.
ServeSpec serve_mix_spec() {
  ServeSpec s;
  const auto npb = [](const char* bench, const char* np) {
    return KVs{{"workload", "npb"}, {"bench", bench}, {"class", "S"}, {"np", np}};
  };
  const auto with = [](KVs kvs, const KVs& extra) {
    kvs.insert(kvs.end(), extra.begin(), extra.end());
    return kvs;
  };
  s.hot = {
      npb("CG", "8"),
      with(npb("EP", "8"), {{"platform", "ec2"}}),
      with(npb("MG", "4"), {{"topo", "fattree"}}),
      {{"workload", "osu"}, {"bench", "bw"}, {"platform", "vayu"}},
      {{"workload", "osu"}, {"bench", "lat"}, {"platform", "dcc"}},
      {{"workload", "metum"}, {"np", "8"}, {"platform", "vayu"}},
      {{"workload", "chaste"}, {"np", "4"}, {"platform", "dcc"}},
      with(npb("CG", "8"), {{"mtbf", "4000"}, {"ckpt", "600"}}),
  };
  s.alias_base = {s.hot[0], s.hot[1]};
  s.heavy = {
      {{"workload", "metum"}, {"np", "8"}, {"platform", "dcc"}},
      {{"workload", "metum"}, {"np", "8"}, {"platform", "ec2"}},
      {{"workload", "chaste"}, {"np", "8"}, {"platform", "vayu"}},
      {{"workload", "chaste"}, {"np", "8"}, {"platform", "ec2"}},
  };
  s.rate = 1000;
  s.healthz_frac = 0.01;
  s.miss_frac = 0.10;
  s.alias_share = 0.5;
  return s;
}

/// --trace 0: set-up is process start to the first replay (server start and
/// hot-set pre-warm included); wall_s is the median replay of the mix's
/// light requests, back to back over one connection, each against a fresh
/// pre-warmed server, replaying for at least --seconds and kMinReplays
/// times. It is the serial cost of answering the mix (serve path plus miss
/// compute). The open loop's latencies stay per-layer figures: concurrent
/// misses slow each other by up to ~2.5x on a shared 4-vCPU host, and
/// sub-millisecond latencies hinge on how fast idle threads wake, so neither
/// repeats well enough to bound.
Outcome run_replays(const ServeSpec& spec, const RunArgs& args) {
  Outcome o;
  std::vector<Planned> replay;
  for (const auto& p : plan_mix(spec, args.seed)) {
    if (p.kind != "heavy") replay.push_back({p.kind, p.kvs, 0});
  }
  Server server = start_warm(spec, false);
  const double setup_s = setup_elapsed(args);
  if (args.setup_only) {
    server.stop();
    o.metrics.set("setup_s", setup_s, "s");
    return o;
  }
  // Each replay's responses are checked, then dropped, before the next
  // replay; the reference blobs are computed once, after the first.
  Checker checker;
  std::vector<double> replay_s;
  double peak_mb = 0;
  std::map<std::string, std::pair<std::size_t, double>> kinds;  // count, seconds
  const auto t_start = Clock::now();
  for (int rep = 0; rep < kMinReplays || seconds_since(t_start) < args.seconds; ++rep) {
    if (rep > 0) server = start_warm(spec, false);
    const auto t0 = Clock::now();
    const std::vector<Done> done = send_plan(replay, server.http->port(), 1);
    replay_s.push_back(seconds_since(t0));
    server.stop();  // before the next server or the correctness pass
    if (rep == 0) {
      // Set-up plus one replay: later replays repeat the same work on a
      // fresh server, and the reference pass adds its own footprint.
      peak_mb = peak_rss_mb();
      checker.prepare(replay);
      for (std::size_t i = 0; i < replay.size(); ++i) {
        auto& [n, secs] = kinds[replay[i].kind];
        ++n;
        secs += done[i].done_s - done[i].send_s;
      }
    }
    for (std::size_t i = 0; i < replay.size(); ++i) checker.check(replay[i], done[i], o.tally);
  }
  std::printf("# serve replay: %zu requests, %zu replays:", replay.size(), replay_s.size());
  for (const double t : replay_s) std::printf(" %.3f", t);
  std::printf(" s\n");
  // Where the first replay's time goes, by request kind.
  for (const auto& [kind, v] : kinds) {
    std::printf("# serve replay %-8s %5zu requests %8.3f s\n", kind.c_str(), v.first, v.second);
  }
  o.metrics.set("wall_s", median(replay_s), "s");
  o.metrics.set("setup_s", setup_median(args, setup_s), "s");
  o.metrics.set("peak_rss_mb", peak_mb, "MB");
  return o;
}

}  // namespace

Outcome run_serve_mix(const RunArgs& args) {
  const ServeSpec spec = serve_mix_spec();
  if (!args.trace) return run_replays(spec, args);

  Outcome o;
  Metrics& m = o.metrics;
  SpanLog log;
  const int root = log.open("workload", -1);
  ServeResult r;
  {
    Scoped s(&log, "serve", root);
    r = run_serve_load(spec, args.seed, o.tally);
  }
  // Layer counts: every distinct configuration the window computed, once,
  // with the engine's own counters on.
  LayerCounts counts;
  double execute_s = 0;
  for (const auto& kvs : r.miss_configs) {
    const auto req = parse_kvs(kvs);
    if (req.workload == "osu") continue;
    serve::ExecOptions exec;
    exec.telemetry.enabled = true;
    const auto before = global_snapshot();
    const auto t0 = Clock::now();
    serve::RunOutcome out;
    {
      Scoped s(&log, "execute", root);
      out = serve::execute(req, exec);
    }
    execute_s += seconds_since(t0);
    counts.add_global(before, global_snapshot());
    for (const auto& [name, v] : out.result.telemetry->registry.counter_values()) {
      if (name == "sim_fiber_switches") counts.fiber_switches += v;
      if (name == "sim_heap_depth_hwm") counts.heap_depth_hwm = std::max(counts.heap_depth_hwm, v);
    }
  }
  const TraceCost tc = trace_cost_probe(parse_kvs(spec.heavy[0]), o.tally, &log, root);
  std::map<std::string, double> kernel_ms;
  {
    Scoped s(&log, "execute", root);
    kernel_ms = kernel_probe_ms(o.tally);
  }
  std::vector<KVs> plan_kvs;
  std::vector<std::string> keys;
  {
    const auto plan = plan_mix(spec, args.seed);
    std::set<std::string> seen;
    for (const auto& p : plan) {
      if (p.kind == "healthz") continue;
      plan_kvs.push_back(p.kvs);
      const std::string key = parse_kvs(p.kvs).canonical_key();
      if (seen.insert(key).second) keys.push_back(key);
    }
  }
  ProbeResults probes;
  {
    Scoped s(&log, "probes", root);
    probes = run_layer_probes(std::max<std::uint64_t>(counts.heap_depth_hwm, 16));
    const auto cache_us = cache_probe(keys, std::max<std::size_t>(r.mean_blob_bytes, 1));
    r.cache_put_us = cache_us.first;
    r.cache_get_us = cache_us.second;
    r.parse_us = request_parse_probe(plan_kvs);
  }
  add_count_metrics(counts, execute_s, m);
  add_probe_metrics(probes, counts, execute_s, m);
  add_trace_cost_metrics(tc, m);
  for (const auto& [bench, ms] : kernel_ms) m.set("npb.kernel_ms." + bench, ms, "ms");
  m.set("npb.kernel_share", 0.0, "fraction");
  add_serve_metrics(r, m);
  m.set("trace.pass_execute_s", execute_s, "s");
  log.close(root);
  add_self_time_metrics(log, m);
  return o;
}

}  // namespace perfbench
