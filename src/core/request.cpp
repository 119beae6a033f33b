#include "core/request.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace cirrus::core {

namespace {

std::string lower(std::string s) {
  for (auto& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

std::string upper(std::string s) {
  for (auto& c : s) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return s;
}

bool parse_int(const std::string& v, long long& out) {
  char* end = nullptr;
  out = std::strtoll(v.c_str(), &end, 10);
  return end != v.c_str() && *end == '\0';
}

bool parse_num(const std::string& v, double& out) {
  char* end = nullptr;
  out = std::strtod(v.c_str(), &end);
  return end != v.c_str() && *end == '\0';
}

bool one_of(const std::string& v, std::initializer_list<std::string_view> set) {
  return std::any_of(set.begin(), set.end(), [&](std::string_view s) { return v == s; });
}

bool fail(std::string* error, std::string msg) {
  if (error != nullptr) *error = std::move(msg);
  return false;
}

}  // namespace

std::string RunRequest::canonical_key() const {
  // Alphabetical by key — the canonical order. Every knob always appears so
  // "np=8" and an omitted np canonicalise identically. `bench` renders as
  // bench_key(), so irrelevant knobs never split the cache.
  //
  // Knobs the run cannot read render as their default value, so a key that
  // was already exact keeps its bytes (topo::Topology::build, place_nodes):
  // - a crossbar and a vSwitch return from build before reading oversub or
  //   leaf, and have at most one group, so place_nodes packs in index order
  //   whatever the placement;
  // - placement groups read leaf and placement but not oversub;
  // - place_nodes packs pgroup in index order exactly as contig;
  // - a fat-tree takes max(1, oversub), so every oversub <= 1 reads as 1;
  // - with mtbf = ckpt = 0, run_with_faults calls plain run_job, which
  //   reads neither requeue nor horizon;
  // - ranks_per_node() treats every rpn <= 0 as "fill the node";
  // - only npb reads the class.
  static const RunRequest defaults;
  const std::string canon_topo = lower(topo);
  const bool fattree = canon_topo == "fattree";
  const RunRequest& shape_knobs = fattree || canon_topo == "pgroups" ? *this : defaults;
  const double canon_oversub = fattree ? std::max(1.0, oversub) : defaults.oversub;
  const std::string placement_read = lower(shape_knobs.placement);
  const RunRequest& fault_knobs = mtbf_s <= 0 && ckpt_s <= 0 ? defaults : *this;
  const bool is_npb = workload == "npb";
  const bool is_wf = workload == "wf";

  // The `k=v` pairs go straight into one string, space-separated.
  std::string out;
  out.reserve(256);
  const auto put = [&out](std::string_view k, std::string_view v) {
    if (!out.empty()) out += ' ';
    out += k;
    out += '=';
    out += v;
  };
  put("bench", bench_key());
  put("ckpt", obs::format_double(ckpt_s));
  put("class", is_npb ? upper(cls) : defaults.cls);
  put("eager", std::to_string(eager_bytes));
  put("execute", execute ? "1" : "0");
  put("horizon", obs::format_double(fault_knobs.horizon_s));
  put("leaf", std::to_string(shape_knobs.leaf));
  put("mtbf", obs::format_double(mtbf_s));
  put("np", std::to_string(np));
  put("oversub", obs::format_double(canon_oversub));
  put("placement", placement_read == "pgroup" ? "contig" : placement_read);
  put("platform", resolved_platform());
  put("requeue", obs::format_double(fault_knobs.requeue_s));
  put("rpn", std::to_string(rpn > 0 ? rpn : defaults.rpn));
  put("sched", "heap4");  // the engine's one scheduler; kept so no key hash moves
  put("seed", std::to_string(seed));
  // "s3" is an accepted spelling of the object backend; osu moves no file
  // data, so its storage knob is pinned. The wf-* knobs only exist for the
  // workflow workload.
  const std::string canon_storage = lower(storage);
  put("storage", workload == "osu"        ? "-"
                 : canon_storage == "s3" ? "object"
                                         : std::string_view(canon_storage));
  put("topo", canon_topo);
  put("wf-sched", is_wf ? lower(wf_sched) : std::string("-"));
  put("wf-shape", is_wf ? lower(wf_shape) : std::string("-"));
  put("wf-width", is_wf ? std::to_string(wf_width) : std::string("-"));
  put("workload", lower(workload));
  return out;
}

std::string RunRequest::bench_key() const {
  if (workload == "npb") return upper(bench);
  if (workload == "osu") return lower(bench);
  return "-";
}

std::string RunRequest::resolved_platform() const {
  const std::string base = lower(platform);
  // `gen` only ever *upgrades* a base name; asking for gen=2012 with an
  // already-2020-qualified name is a conflict that validate() rejects.
  if (gen == 2020) {
    if (base == "vayu") return "vayu2020";
    if (base == "ec2") return "ec2_2020";
  }
  return base;
}

int RunRequest::generation() const {
  const std::string p = resolved_platform();
  return (p == "vayu2020" || p == "ec2_2020") ? 2020 : 2012;
}

std::vector<std::pair<std::string, std::string>> RunRequest::items() const {
  // canonical_key() is the grammar's one writer; this splits it.
  std::vector<std::pair<std::string, std::string>> out;
  std::istringstream key(canonical_key());
  for (std::string tok; std::getline(key, tok, ' ');) {
    const std::size_t eq = tok.find('=');
    out.emplace_back(tok.substr(0, eq), tok.substr(eq + 1));
  }
  return out;
}

std::uint64_t RunRequest::key_hash() const { return fnv1a64(canonical_key()); }

std::string RunRequest::key_hash_hex() const { return hex16(key_hash()); }

bool RunRequest::set(const std::string& key, const std::string& value, std::string* error) {
  long long i = 0;
  double d = 0;
  const auto want_int = [&](long long lo, long long hi) {
    return parse_int(value, i) && i >= lo && i <= hi;
  };
  const auto want_num = [&](double lo) {
    return parse_num(value, d) && std::isfinite(d) && d >= lo;
  };

  if (key == "workload") {
    workload = lower(value);
  } else if (key == "bench") {
    bench = value;  // read through bench_key(), once the workload is known
  } else if (key == "class") {
    cls = upper(value);
  } else if (key == "platform") {
    platform = lower(value);
  } else if (key == "gen") {
    if (!parse_int(value, i) || (i != 2012 && i != 2020)) {
      return fail(error, "gen: 2012|2020 expected");
    }
    gen = static_cast<int>(i);
  } else if (key == "np") {
    if (!want_int(1, 1 << 20)) return fail(error, "np: positive integer expected");
    np = static_cast<int>(i);
  } else if (key == "rpn") {
    if (!want_int(-1, 1 << 20)) return fail(error, "rpn: integer >= -1 expected");
    rpn = static_cast<int>(i);
  } else if (key == "seed") {
    if (!want_int(0, (1LL << 62))) return fail(error, "seed: non-negative integer expected");
    seed = static_cast<std::uint64_t>(i);
  } else if (key == "execute") {
    if (!one_of(value, {"0", "1", "true", "false"})) {
      return fail(error, "execute: 0|1 expected");
    }
    execute = value == "1" || value == "true";
  } else if (key == "eager") {
    if (!want_int(0, 1LL << 32)) return fail(error, "eager: byte count expected");
    eager_bytes = static_cast<std::uint64_t>(i);
  } else if (key == "topo") {
    topo = lower(value);
  } else if (key == "oversub") {
    if (!want_num(0)) return fail(error, "oversub: finite number >= 0 expected");
    oversub = d;
  } else if (key == "leaf") {
    if (!want_int(1, 1 << 16)) return fail(error, "leaf: positive integer expected");
    leaf = static_cast<int>(i);
  } else if (key == "placement") {
    placement = lower(value);
  } else if (key == "sched") {
    // Accepted for existing clients; the engine has one scheduler.
    if (!one_of(lower(value), {"heap4", "calendar"})) {
      return fail(error, "sched: heap4|calendar expected, got '" + value + "'");
    }
  } else if (key == "mtbf") {
    if (!want_num(0)) return fail(error, "mtbf: finite seconds >= 0 expected");
    mtbf_s = d;
  } else if (key == "ckpt") {
    if (!want_num(0)) return fail(error, "ckpt: finite seconds >= 0 expected");
    ckpt_s = d;
  } else if (key == "requeue") {
    if (!want_num(0)) return fail(error, "requeue: finite seconds >= 0 expected");
    requeue_s = d;
  } else if (key == "horizon") {
    if (!want_num(0)) return fail(error, "horizon: finite seconds >= 0 expected");
    horizon_s = d;
  } else if (key == "storage") {
    storage = lower(value);
  } else if (key == "wf-shape") {
    wf_shape = lower(value);
  } else if (key == "wf-width") {
    if (!want_int(0, 4096)) return fail(error, "wf-width: integer in [0, 4096] expected");
    wf_width = static_cast<int>(i);
  } else if (key == "wf-sched") {
    wf_sched = lower(value);
  } else {
    return fail(error, "unknown key '" + key + "'");
  }
  return true;
}

bool RunRequest::parse(const std::vector<std::pair<std::string, std::string>>& kvs,
                       RunRequest& out, std::string* error) {
  out = RunRequest{};
  for (const auto& [k, v] : kvs) {
    if (!out.set(k, v, error)) return false;
  }
  return out.validate(error);
}

RunRequest RunRequest::from_options(const Options& opts, const std::string& workload) {
  RunRequest req;
  std::string error;
  if (!req.set("workload", workload, &error)) throw std::invalid_argument(error);
  for (const auto& key : opts.keys()) {
    const auto value = opts.get(key);
    if (!value) {
      if (key == "execute" && !req.set(key, "1", &error)) {
        throw std::invalid_argument("--" + error);
      }
      continue;  // other valueless flags (--ipm, --metrics) are not request keys
    }
    // Only request keys are consumed; front-end-only flags pass through.
    RunRequest probe = req;
    if (probe.set(key, *value, &error)) {
      req = probe;
    } else if (error.rfind("unknown key", 0) != 0) {
      throw std::invalid_argument("--" + error);
    }
  }
  if (!req.validate(&error)) throw std::invalid_argument(error);
  return req;
}

bool RunRequest::validate(std::string* error) const {
  if (!one_of(workload, {"npb", "osu", "metum", "chaste", "wf"})) {
    return fail(error, "workload: npb|osu|metum|chaste|wf expected, got '" + workload + "'");
  }
  if (workload == "npb") {
    if (!one_of(bench_key(), {"BT", "EP", "CG", "FT", "IS", "LU", "MG", "SP"})) {
      return fail(error, "bench: BT|EP|CG|FT|IS|LU|MG|SP expected, got '" + bench + "'");
    }
    if (!one_of(cls, {"T", "S", "W", "A", "B", "C"})) {
      return fail(error, "class: T|S|W|A|B|C expected, got '" + cls + "'");
    }
  }
  if (workload == "osu" && !one_of(bench_key(), {"bw", "lat"})) {
    // The default bench is npb's CG: quoting it would name a value an osu
    // caller who sent no bench never gave.
    static const RunRequest defaults;
    return fail(error, "bench: bw|lat expected for osu" +
                           (bench == defaults.bench ? "" : ", got '" + bench + "'"));
  }
  if (!one_of(platform, {"vayu", "dcc", "ec2", "vayu2020", "ec2_2020"})) {
    return fail(error,
                "platform: vayu|dcc|ec2|vayu2020|ec2_2020 expected, got '" + platform + "'");
  }
  if (gen != 0 && gen != 2012 && gen != 2020) {
    return fail(error, "gen: 2012|2020 expected");
  }
  const bool name_is_2020 = platform == "vayu2020" || platform == "ec2_2020";
  if (gen == 2012 && name_is_2020) {
    return fail(error, "gen: 2012 conflicts with gen-2020 platform '" + platform + "'");
  }
  if (gen == 2020 && platform == "dcc") {
    return fail(error, "gen: platform dcc has no gen-2020 model");
  }
  if (!one_of(topo, {"crossbar", "fattree", "vswitch", "pgroups"})) {
    return fail(error, "topo: crossbar|fattree|vswitch|pgroups expected, got '" + topo + "'");
  }
  if (!one_of(placement, {"contig", "scatter", "pgroup"})) {
    return fail(error, "placement: contig|scatter|pgroup expected, got '" + placement + "'");
  }
  if (!one_of(storage, {"nfs", "lustre", "object", "s3"})) {
    return fail(error, "storage: nfs|lustre|object expected, got '" + storage + "'");
  }
  if (workload == "wf") {
    if (!one_of(wf_shape, {"diamond", "montage", "epigenomics", "broadband"})) {
      return fail(error,
                  "wf-shape: diamond|montage|epigenomics|broadband expected, got '" +
                      wf_shape + "'");
    }
    if (!one_of(wf_sched, {"heft", "fifo"})) {
      return fail(error, "wf-sched: heft|fifo expected, got '" + wf_sched + "'");
    }
    if (mtbf_s > 0 || ckpt_s > 0) {
      return fail(error, "wf: fault injection (mtbf/ckpt) is not supported");
    }
  }
  if (np < 1) return fail(error, "np: must be >= 1");
  return true;
}

}  // namespace cirrus::core
