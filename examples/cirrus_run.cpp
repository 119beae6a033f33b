// cirrus_run — the general experiment driver: run any workload on any
// platform configuration from the command line.
//
//   cirrus_run npb    --bench CG --class B --platform vayu --np 32 [--execute]
//   cirrus_run npb    --bench CG --class B --platform vayu --gen 2020 --np 32
//   cirrus_run osu    --bench bw|lat --platform dcc
//   cirrus_run metum  --platform ec2 --np 32 --rpn 8
//   cirrus_run chaste --platform dcc --np 16
//   cirrus_run wf     --wf-shape montage --storage object --np 8 --platform ec2
//   cirrus_run advise --bench CG --np 16 --queue_wait_hours 4 [--seed S]
//
// The workload positional is set before the flags are checked, so each flag
// is read as that workload reads it (osu's --bench is bw|lat, as in /query).
//
// Common options: --platform vayu|dcc|ec2|vayu2020|ec2_2020  --gen 2012|2020
//                 (generation qualifier: "--platform vayu --gen 2020" runs on
//                 the gen-2020 model of that machine)  --np N  --rpn ranks-per-node
//                 --seed S  --execute  --eager BYTES  --ipm (full summary)
//                 --trace FILE (write a chrome://tracing JSON trace: rank
//                 intervals, send->recv flow arrows, fault instants and
//                 causal spans; with --metrics it gains counter tracks)
//                 --blame (critical-path blame attribution: walk the span/
//                 event DAG backwards from completion and print the makespan
//                 split into compute / mpi-wait / fabric-serialization /
//                 storage-queue / barrier-lookahead, plus the top edges)
// Telemetry:      --metrics [FILE] (Prometheus-style text dump of the
//                 simulator's self-profiling counters; stdout when no FILE)
//                 --sample-dt SECONDS (virtual-time sampling cadence for
//                 gauge time series)  --metrics-csv FILE (write the sampled
//                 series as CSV; requires --sample-dt)
// Topology:       --topo crossbar|fattree|vswitch|pgroups (fabric between the
//                 NICs; crossbar = legacy NIC-only model)  --oversub K
//                 (fat-tree uplink oversubscription)  --leaf N (nodes per
//                 leaf/group)  --placement contig|scatter|pgroup
//                 With --ipm, per-link utilisation counters are printed.
// Faults:         --mtbf SECONDS (per-node crash MTBF; job restarts from the
//                 last checkpoint)  --ckpt SECONDS (checkpoint interval)
//                 --requeue SECONDS (restart delay after a crash)
//                 With --trace, the merged multi-attempt timeline — including
//                 each killed attempt's partial spans — goes to one file.
//
// The configuration is carried by core::RunRequest and executed through
// serve::execute() — the exact plumbing cirrus_serve uses to answer /query
// requests — so a CLI run and a served query of the same knobs are
// byte-identical. `advise` parses its flags with serve::AdvisorRequest::parse
// and prints serve::advise_json(), the `result` object /advise returns for
// the same keys. This driver only parses flags and prints.
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/options.hpp"
#include "core/request.hpp"
#include "core/table.hpp"
#include "mpi/minimpi.hpp"
#include "obs/critpath.hpp"
#include "obs/trace_export.hpp"
#include "osu/osu.hpp"
#include "serve/service.hpp"

namespace {

using namespace cirrus;

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s npb|osu|metum|chaste|wf [--platform vayu|dcc|ec2|vayu2020|ec2_2020]\n"
               "        [--gen 2012|2020] [--np N]\n"
               "       %s advise [--bench CG] [--np 16] [--queue_wait_hours 4] [--seed 42]\n"
               "  npb:    --bench BT|EP|CG|FT|IS|LU|MG|SP --class T|S|W|A|B|C [--execute]\n"
               "  osu:    --bench bw|lat\n"
               "  wf:     --wf-shape diamond|montage|epigenomics|broadband --wf-width W\n"
               "          --wf-sched heft|fifo (np = workers; a master rank is added)\n"
               "  common: --rpn ranks-per-node --seed S --eager bytes --ipm\n"
               "          --storage nfs|lustre|object (shared-storage backend)\n"
               "  topo:   --topo crossbar|fattree|vswitch|pgroups --oversub K --leaf N\n"
               "          --placement contig|scatter|pgroup\n"
               "  faults: --mtbf seconds --ckpt seconds --requeue seconds --horizon seconds\n"
               "  obs:    --metrics [file] --sample-dt seconds --metrics-csv file\n"
               "          --trace file --blame (critical-path blame table)\n",
               prog, prog);
  return 2;
}

/// Front-end toggles (everything outside the RunRequest / cache key).
serve::ExecOptions exec_options(const core::Options& opts) {
  serve::ExecOptions exec;
  exec.enable_trace = opts.has("trace") || opts.has("blame");
  exec.telemetry.sample_dt_s = opts.get_double("sample-dt", 0.0);
  exec.telemetry.enabled = opts.has("metrics") || opts.has("metrics-csv") ||
                           exec.telemetry.sample_dt_s > 0;
  return exec;
}

/// The per-link utilisation table printed with --ipm on a non-trivial fabric.
void print_link_table(const mpi::JobResult& r) {
  if (!r.topology || r.link_stats.empty()) return;
  std::printf("fabric: %s\n", r.topology->describe().c_str());
  core::Table t({"link", "transfers", "MB", "busy (s)", "queued (s)"});
  const auto& links = r.topology->links();
  for (std::size_t i = 0; i < r.link_stats.size(); ++i) {
    const auto& s = r.link_stats[i];
    t.row()
        .add(links[i].name)
        .add(static_cast<int>(s.transfers))
        .add(static_cast<double>(s.bytes) / 1e6, 1)
        .add(cirrus::sim::to_seconds(s.busy), 3)
        .add(cirrus::sim::to_seconds(s.queued), 3);
  }
  std::fputs(t.str().c_str(), stdout);
}

void print_result(const mpi::JobResult& r, const std::string& name,
                  const core::Options& opts) {
  std::printf("%s: %.3f s virtual walltime, %.1f%% comm, %.1f%% imbalance\n", name.c_str(),
              r.elapsed_seconds, r.ipm.comm_pct(), r.ipm.imbalance_pct());
  for (const auto& [k, v] : r.values) std::printf("  %s = %g\n", k.c_str(), v);
  if (opts.has("ipm")) {
    std::fputs(r.ipm.text_summary(name).c_str(), stdout);
    std::fputs(r.ipm.call_table_str().c_str(), stdout);
    print_link_table(r);
  }
  if (const auto path = opts.get("trace"); path && r.trace) {
    std::ofstream out(*path);
    out << obs::enriched_chrome_json(r.trace.get(),
                                     r.telemetry ? &r.telemetry->sampler : nullptr);
    std::printf("wrote %zu trace events to %s (open in chrome://tracing)\n",
                r.trace->size(), path->c_str());
  }
  if (opts.has("blame") && r.trace) {
    const auto blame = obs::critpath::attribute(*r.trace);
    std::fputs(blame.format().c_str(), stdout);
  }
  if (r.telemetry) {
    if (opts.has("metrics")) {
      const std::string text = r.telemetry->prometheus_text();
      if (const auto path = opts.get("metrics"); path && !path->empty()) {
        std::ofstream out(*path);
        out << text;
        std::printf("wrote %zu metric series to %s\n", r.telemetry->registry.size(),
                    path->c_str());
      } else {
        std::fputs(text.c_str(), stdout);
      }
    }
    if (const auto path = opts.get("metrics-csv"); path) {
      const std::string csv = r.telemetry->samples_csv();
      if (csv.empty()) {
        std::fputs("--metrics-csv: no samples (use --sample-dt to enable sampling)\n",
                   stderr);
      } else {
        std::ofstream out(*path);
        out << csv;
        std::printf("wrote sampled time series to %s\n", path->c_str());
      }
    }
  }
}

int run_job_mode(const std::string& mode, const core::Options& opts) {
  const auto req = core::RunRequest::from_options(opts, mode);
  const auto out = serve::execute(req, exec_options(opts));
  if (out.resilient_used) {
    const auto& run = out.resilient;
    std::printf(
        "faults: %d attempt(s), %d crash(es), %.1f s lost work, %.1f s restart delay, "
        "%d checkpoint(s); makespan %.3f s\n",
        run.attempts, run.faults_hit, run.lost_work_s, run.restart_delay_s,
        run.checkpoints_taken, run.makespan_s);
  }
  print_result(out.result, out.display_name, opts);
  const auto& r = out.result;
  if (req.execute && r.values.count("verified") != 0U && r.values.at("verified") != 1.0) {
    std::fputs("VERIFICATION FAILED\n", stderr);
    return 1;
  }
  return 0;
}

int run_osu(const core::Options& opts) {
  // Route through RunRequest so --gen folding and validation match /query.
  const auto req = core::RunRequest::from_options(opts, "osu");
  const auto platform = plat::by_name(req.resolved_platform());
  const std::string test = req.bench_key();
  core::Table t(test == "bw" ? std::vector<std::string>{"bytes", "MB/s"}
                             : std::vector<std::string>{"bytes", "usec"});
  if (test == "bw") {
    for (const auto& p : osu::bandwidth(platform, osu::default_sizes())) {
      t.row().add(static_cast<int>(p.bytes)).add(p.mb_per_s, 2);
    }
  } else {
    for (const auto& p : osu::latency(platform, osu::default_sizes())) {
      t.row().add(static_cast<int>(p.bytes)).add(p.usec, 2);
    }
  }
  std::printf("osu_%s on %s\n%s", test.c_str(), platform.name.c_str(), t.str().c_str());
  return 0;
}

/// `advise`: the flags are /advise's keys, parsed by the one AdvisorRequest
/// parser, and the output is the blob /advise caches.
int run_advise(const core::Options& opts, const char* prog) {
  std::vector<std::pair<std::string, std::string>> kvs;
  for (const auto& key : opts.keys()) kvs.emplace_back(key, opts.get_or(key, ""));
  serve::AdvisorRequest req;
  std::string error;
  if (!serve::AdvisorRequest::parse(kvs, req, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return usage(prog);
  }
  std::puts(serve::advise_json(req).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const core::Options opts(argc, argv);
  if (opts.positional().empty()) return usage(argv[0]);
  const std::string& mode = opts.positional()[0];
  try {
    if (mode == "advise") return run_advise(opts, argv[0]);
    if (const auto bad = core::unknown_keys(
            opts, {"platform", "gen", "np", "rpn", "seed", "execute", "eager", "ipm", "trace",
                   "blame", "metrics", "sample-dt", "metrics-csv", "topo", "oversub", "leaf",
                   "placement", "mtbf", "ckpt", "requeue", "horizon", "bench", "class",
                   "storage", "wf-shape", "wf-width", "wf-sched"});
        !bad.empty()) {
      std::fprintf(stderr, "error: unknown option --%s\n", bad.front().c_str());
      return usage(argv[0]);
    }
    if (mode == "osu") return run_osu(opts);
    if (mode == "npb" || mode == "metum" || mode == "chaste" || mode == "wf") {
      return run_job_mode(mode, opts);
    }
  } catch (const std::invalid_argument& e) {
    // Bad knob values (unknown platform, gen conflict, a job that does not
    // fit, ...) are usage errors: rc 2 like the unknown-flag path, not a
    // generic failure.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage(argv[0]);
}
