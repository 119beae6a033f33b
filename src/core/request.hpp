// RunRequest: one simulation configuration as plain data, shared by every
// front end — `cirrus_run` flags, `cirrus_serve` HTTP queries, the load
// generator — and the unit the result cache is keyed on.
//
// The struct holds the knobs that affect the simulated result (platform,
// workload, ranks, topology, faults, protocol thresholds, seed), plus one
// inert field, `sched`, kept only for key stability (see below). Output
// toggles (traces, metrics) and pure performance knobs (--jobs) are
// deliberately absent: two requests that differ only in those produce
// byte-identical results, so they must canonicalise to the same cache key.
//
// canonical_key() renders the request as `k=v` pairs, every key always
// present (defaults filled in), keys sorted, values normalised — the
// *cache-key grammar* (DESIGN.md "Serving"). Because the simulator is
// deterministic, equal keys imply byte-identical results, which is what
// makes content-addressed caching exact rather than approximate.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/options.hpp"

namespace cirrus::core {

struct RunRequest {
  std::string workload = "npb";    ///< npb | osu | metum | chaste | wf
  std::string bench = "CG";        ///< npb: BT|EP|CG|FT|IS|LU|MG|SP; osu: bw|lat
  std::string cls = "S";           ///< npb class letter (T|S|W|A|B|C)
  std::string platform = "vayu";   ///< vayu | dcc | ec2 | vayu2020 | ec2_2020
  /// Platform generation selector: 0 follows the platform name as given,
  /// 2020 upgrades a base name to its gen-2020 model ("vayu" -> "vayu2020"),
  /// 2012 pins the study generation. The key grammar folds this into the
  /// `platform` value (see resolved_platform), so `{platform=vayu, gen=2020}`
  /// and `{platform=vayu2020}` canonicalise identically and every gen-2012
  /// key stays byte-identical to what it was before generations existed.
  int gen = 0;
  int np = 8;
  int rpn = -1;                    ///< max ranks per node (-1: fill the node)
  std::uint64_t seed = 1;
  bool execute = false;            ///< run the real math vs model mode
  std::uint64_t eager_bytes = 16 * 1024;
  std::string topo = "crossbar";   ///< crossbar | fattree | vswitch | pgroups
  double oversub = 1.0;
  int leaf = 4;
  std::string placement = "contig";  ///< contig | scatter | pgroup
  /// heap4 | calendar. Inert: the engine has one scheduler, so both values
  /// give byte-identical results. Still parsed, validated and emitted into
  /// canonical_key() so every existing key and key hash stays unchanged.
  std::string sched = "heap4";
  double mtbf_s = 0;               ///< per-node crash MTBF (0: no faults)
  double ckpt_s = 0;               ///< checkpoint interval
  double requeue_s = 60;           ///< restart delay after a crash
  double horizon_s = 2592000;      ///< fault-schedule horizon (30 days)
  std::string storage = "nfs";     ///< nfs | lustre | object ("s3" = object)
  std::string wf_shape = "montage";  ///< wf: diamond|montage|epigenomics|broadband
  int wf_width = 0;                ///< wf: fan-out width (0: shape default)
  std::string wf_sched = "heft";   ///< wf: heft | fifo

  /// Canonical `k=v` rendering: sorted keys, all present, normalised values.
  [[nodiscard]] std::string canonical_key() const;
  /// FNV-1a 64-bit hash of canonical_key() — the content address.
  [[nodiscard]] std::uint64_t key_hash() const;
  /// key_hash() as 16 lower-case hex digits.
  [[nodiscard]] std::string key_hash_hex() const;

  /// The canonical key split back into (key, value) pairs.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> items() const;

  /// The generation-qualified platform name the simulation actually runs on
  /// (`gen` folded into the name): this is what the key grammar emits and
  /// what front ends should hand to plat::by_name.
  [[nodiscard]] std::string resolved_platform() const;
  /// Hardware generation of resolved_platform(): 2012 or 2020.
  [[nodiscard]] int generation() const;

  /// Applies one `key=value` pair (the serve/query grammar; also used by
  /// from_options). Unknown key or malformed value: returns false and sets
  /// `error`. Order-insensitive by construction: assignment only.
  bool set(const std::string& key, const std::string& value, std::string* error);

  /// Builds a request from parsed command-line options (`--np 16 --topo
  /// fattree ...`). Keys not present keep their defaults; a bad value
  /// throws std::invalid_argument.
  static RunRequest from_options(const Options& opts);

  /// Builds a request from (key, value) pairs in any order. On failure
  /// returns false and sets `error`.
  static bool parse(const std::vector<std::pair<std::string, std::string>>& kvs,
                    RunRequest& out, std::string* error);

  /// Post-parse sanity: enum fields hold known values, np >= 1, etc.
  /// Returns false and sets `error` on the first violation.
  [[nodiscard]] bool validate(std::string* error) const;
};

/// FNV-1a 64-bit — the content-address hash (stable across platforms).
std::uint64_t fnv1a64(std::string_view s) noexcept;

}  // namespace cirrus::core
