// Pluggable shared-storage backends for simulated jobs.
//
// The original model (plat::FsModel through net::FileSystem) is a single
// contended server with two scalar bandwidths — a fair description of the
// study's NFS mounts but not of Vayu's striped Lustre scratch or of an
// S3-like object store, whose economics dominate workflow workloads (Juve
// et al., "Scientific Workflow Applications on Amazon EC2"). This module
// generalises it to three backends behind one deterministic FIFO service:
//
//   * Nfs    — one server, per-open latency. Exactly the legacy
//              net::FileSystem arithmetic, so it is the golden-compatible
//              default: every request reproduces the old SimTime bit for
//              bit.
//   * Lustre — a metadata server (open cost, serialised) in front of N
//              object storage servers; requests are striped round-robin
//              across the OSSes and complete when the slowest involved
//              stripe drains. Aggregate bandwidth scales with server count;
//              small-file workloads still queue on the MDS.
//   * Object — an S3-like store: per-request first-byte latency, a pool of
//              front ends picked least-loaded-first, high aggregate
//              bandwidth, no locality and no open() distinct from the
//              request itself.
//
// Requests are serviced in call order, which is the engine's event order,
// so all completion times, and therefore all results built on them, are
// bit-identical for any --jobs count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "platform/platform.hpp"
#include "sim/time.hpp"

namespace cirrus::sim {
class Engine;
}

namespace cirrus::storage {

enum class Backend { Nfs, Lustre, Object };

/// Parses "nfs" | "lustre" | "object" (case-insensitive); throws
/// std::invalid_argument otherwise.
Backend backend_from_string(const std::string& s);
const char* to_string(Backend b) noexcept;

/// A fully-calibrated storage model (backend + the numbers the service
/// needs). Built per platform by model_for(); plain data so tests can craft
/// synthetic configurations directly.
struct Model {
  Backend backend = Backend::Nfs;
  std::string name = "NFS";
  double read_Bps = 100e6;        ///< per-server sustained read bandwidth
  double write_Bps = 80e6;        ///< per-server sustained write bandwidth
  /// Nfs: per-open latency. Lustre: MDS open cost (serialised on the MDS).
  /// Object: per-request first-byte latency (every request pays it).
  double open_latency_ms = 2.0;
  int servers = 1;                ///< OSS count / object front ends
  std::size_t stripe_bytes = 0;   ///< Lustre stripe unit (0: unstriped)
};

/// The platform's calibrated model for a backend. Nfs always maps to the
/// platform-native plat::FsModel scalars (legacy semantics); Lustre/Object
/// come from plat::Platform::storage.
Model model_for(const plat::Platform& p, Backend backend);

/// Service counters. All fields are pure functions of the request stream,
/// so they feed the process-wide intrinsic counter totals.
struct Stats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t opens = 0;          ///< open-bearing requests (MDS hits on Lustre)
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  sim::SimTime busy = 0;            ///< service time reserved across all servers
  sim::SimTime queued = 0;          ///< head-of-line wait behind earlier requests
};

/// Decomposition of the most recent request's latency: time spent queued
/// behind earlier requests vs time the servers were actually working on it.
/// Feeds the storage.queue/storage.service spans and critical-path blame.
struct LastOp {
  sim::SimTime queued = 0;
  sim::SimTime service = 0;
};

/// Deterministic FIFO storage service. read()/write() reserve server time
/// and return the completion instant; the caller (RankEnv::io_read/io_write)
/// sleeps the requesting fiber until then.
class Service {
 public:
  Service(sim::Engine& engine, Model model);

  /// Completion time of a read/write of `bytes` issued now. `open_file`
  /// charges the backend's metadata cost (see Model::open_latency_ms).
  sim::SimTime read(std::size_t bytes, bool open_file);
  sim::SimTime write(std::size_t bytes, bool open_file);

  [[nodiscard]] const Model& model() const noexcept { return model_; }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  /// Queue/service split of the most recent read/write (Stats deltas — pure
  /// accounting, the completion arithmetic is untouched).
  [[nodiscard]] const LastOp& last_op() const noexcept { return last_op_; }

 private:
  sim::SimTime request(sim::SimTime now, std::size_t bytes, double bw_Bps, bool open_file);
  sim::SimTime nfs_request(sim::SimTime now, std::size_t bytes, double bw_Bps, bool open_file);
  sim::SimTime lustre_request(sim::SimTime now, std::size_t bytes, double bw_Bps,
                              bool open_file);
  sim::SimTime object_request(sim::SimTime now, std::size_t bytes, double bw_Bps);

  sim::Engine& engine_;
  Model model_;
  std::vector<sim::SimTime> server_free_;  ///< per-server FIFO horizon
  sim::SimTime mds_free_ = 0;              ///< Lustre metadata server horizon
  std::size_t stripe_rotor_ = 0;           ///< next OSS for round-robin striping
  Stats stats_;
  LastOp last_op_;
};

}  // namespace cirrus::storage
