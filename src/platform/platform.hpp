// Machine models for the three platforms of the study (paper Table I):
//
//   * vayu — the NCI-NF Sun/Oracle X6275 cluster: Xeon X5570 2.93 GHz,
//     8 cores/node, QDR InfiniBand fat-tree, Lustre.
//   * dcc  — the private VMware ESX cluster: Xeon E5520 2.27 GHz,
//     8 cores/node, E1000 vNIC on a channel-bonded 10GigE vSwitch
//     (effective ~1GigE with heavy latency jitter), NFS, NUMA masked.
//   * ec2  — Amazon cc1.4xlarge (Xen): Xeon X5570 2.93 GHz, 8 physical
//     cores + HyperThreading = 16 schedulable slots, 10GigE placement
//     group, NFS.
//
// plus their generation-2020 counterparts, calibrated against "10 Years
// Later: Cloud Computing is Closing the Performance Gap" (Guidi et al.):
//
//   * vayu2020 — a Gadi-class HPC node: AVX-512-era 24-core sockets,
//     100 Gb/s fat-tree, striped parallel FS.
//   * ec2_2020 — a c5n.18xlarge-class instance: Nitro (near-zero virt
//     cost), EFA OS-bypass NIC at 100 Gb/s inside a placement group,
//     HyperThreading disabled so ranks never share a core.
//
// The DCC has no gen-2020 counterpart: the private-cloud tier the paper
// measured was retired, and the 2020 re-examination compares public cloud
// against HPC only.
//
// Each platform is a plain-data description; the compute model converts
// workload "reference seconds" (calibrated on DCC's E5520) into simulated
// time as a function of clock ratio, memory-bandwidth contention,
// HyperThreading, NUMA masking, virtualisation overhead and jitter.
#pragma once

#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace cirrus::plat {

/// Interconnect model parameters (consumed by cirrus::net).
struct NicModel {
  double bandwidth_Bps = 1e9;      ///< sustained p2p bandwidth, bytes/s
  double latency_us = 10.0;        ///< one-way base latency, microseconds
  double per_msg_overhead_us = 1;  ///< per-message CPU overhead on each side
  double jitter_prob = 0.0;        ///< probability of a latency spike per message
  double jitter_mean_us = 0.0;     ///< mean spike magnitude (exponential tail)
  double sys_frac = 0.1;           ///< fraction of comm time booked as system time
  /// True when TX and RX share one packet-processing resource (software
  /// switches / emulated NICs like the DCC's E1000 on the ESX vSwitch).
  bool half_duplex = false;
  /// Service-time multiplier applied to a transfer that arrives at a busy
  /// receive port whose current occupant came from a *different* node —
  /// models incast/fabric congestion under all-to-all traffic. 1.0: off.
  double incast_penalty = 1.0;
};

/// Intra-node (shared-memory transport) model.
struct ShmModel {
  double bandwidth_Bps = 4e9;
  double latency_us = 0.6;
  /// Fraction of intra-node communication time booked as system time (page
  /// mapping / kernel-assisted copies); small everywhere compared with the
  /// NIC's softirq share.
  double sys_frac = 0.05;
};

/// Shared-filesystem model. All ranks contend on one logical server.
struct FsModel {
  double read_Bps = 100e6;
  double write_Bps = 80e6;
  double open_latency_ms = 2.0;
  std::string name = "NFS";
};

/// Calibration for the non-default storage backends (src/storage). The
/// platform-native shared mount stays in FsModel above — it is the
/// golden-compatible "nfs" backend; these numbers describe what a striped
/// parallel FS and an S3-like object store look like from this platform.
struct StorageCalib {
  int lustre_oss = 4;                     ///< object storage servers
  double lustre_oss_read_Bps = 250e6;     ///< per-OSS sustained read
  double lustre_oss_write_Bps = 180e6;    ///< per-OSS sustained write
  double lustre_mds_open_ms = 0.5;        ///< metadata-server open cost
  std::size_t lustre_stripe_bytes = 1 << 20;
  int object_frontends = 8;               ///< concurrent request front ends
  double object_stream_Bps = 80e6;        ///< per-request stream bandwidth
  double object_request_ms = 30.0;        ///< per-request first-byte latency
};

/// CPU / memory-system model.
struct ComputeModel {
  double clock_ghz = 2.27;
  /// Per-rank memory speed relative to the reference machine (DCC's E5520
  /// with DDR3-800): >1 means memory-bound phases run faster than on DCC.
  double mem_speed = 1.0;
  /// Multiplier >= 1 applied to all compute (hypervisor/virtualisation cost).
  double virt_overhead = 1.0;
  /// Throughput delivered by one core running two HyperThreads, relative to
  /// one thread alone (e.g. 1.05 => each of the two threads gets ~0.525).
  double smt_speedup = 1.0;
  bool has_smt = false;
  /// True when the hypervisor hides the NUMA topology from the guest, so
  /// neither the MPI runtime nor the OS can place memory (paper §V-B/V-C).
  bool numa_masked = false;
  /// Worst-case extra slowdown for fully memory-bound work whose pages landed
  /// on the remote socket (applies only when numa_masked).
  double numa_penalty_max = 0.0;
  /// Log-space sigma of multiplicative per-chunk compute noise (OS/hypervisor
  /// jitter; drives the EP fluctuations seen on EC2).
  double jitter_sigma = 0.0;
  /// Strength of the intra-node memory-bandwidth contention curve.
  double mem_contention = 0.0;
};

/// A complete platform description.
struct Platform {
  std::string name;
  /// Hardware generation: 2012 (the paper's study platforms) or 2020 (the
  /// "10 Years Later" refresh). Gen-2012 models are frozen — every committed
  /// pin and determinism golden was produced on them.
  int generation = 2012;
  int nodes = 1;
  int cores_per_node = 8;       ///< physical cores
  int hw_threads_per_node = 8;  ///< schedulable rank slots (16 on EC2: HT on)
  int sockets_per_node = 2;
  double mem_per_node_GB = 24.0;
  ComputeModel compute;
  NicModel nic;
  ShmModel shm;
  FsModel fs;
  StorageCalib storage;
  std::string interconnect;

  [[nodiscard]] int total_slots() const noexcept { return nodes * hw_threads_per_node; }
  [[nodiscard]] int cores_per_socket() const noexcept {
    return cores_per_node / sockets_per_node;
  }
};

/// The NCI-NF Vayu supercomputer (QDR IB, Lustre, bare metal).
Platform vayu();
/// The ANU DCC private VMware cloud (1GigE-class vNIC, NFS, NUMA masked).
Platform dcc();
/// Amazon EC2 cc1.4xlarge cluster instances (Xen, 10GigE, HyperThreading).
Platform ec2();
/// Gen-2020 HPC node: AVX-512-era 48-core node on a 100 Gb/s fat-tree.
Platform vayu2020();
/// Gen-2020 cloud instance: EFA-like OS-bypass NIC, placement-group pods,
/// Nitro virtualisation, HyperThreading disabled.
Platform ec2_2020();
/// Lookup by case-insensitive name; throws std::invalid_argument whose
/// message lists every valid name if unknown.
Platform by_name(const std::string& name);
/// Every name by_name accepts, sorted (the list quoted in its error).
const std::vector<std::string>& known_names();
/// All three study platforms, in paper order (DCC, EC2, Vayu).
std::vector<Platform> study_platforms();
/// The platforms of one generation in canonical order: 2012 -> the study
/// trio, 2020 -> {ec2_2020, vayu2020}. Throws for any other generation.
std::vector<Platform> generation_platforms(int generation);
/// Every platform of every generation (study trio, then the 2020 pair).
std::vector<Platform> all_platforms();
/// The generation-qualified name of `base` ("vayu" + 2020 -> "vayu2020");
/// identity when `base` is already of that generation. Throws
/// std::invalid_argument when no such model exists (e.g. "dcc" + 2020).
std::string generation_name(const std::string& base, int generation);

/// How a workload stresses the machine; used by the compute model.
struct WorkloadTraits {
  /// 0 = pure FLOPs (EP), 1 = fully memory-bandwidth-bound. Scales the
  /// contention, NUMA and mem_speed effects.
  double mem_intensity = 0.5;
};

/// Where one rank of a job runs.
struct RankPlacement {
  int node = 0;
  int slot = 0;           ///< hardware-thread index within the node
  bool shares_core = false;  ///< another rank is on this core's sibling HT
  int ranks_on_node = 1;  ///< total ranks co-located on this node
  double numa_factor = 1.0;  ///< per-rank NUMA penalty (>= 1), fixed per job
};

/// Places `np` ranks on the platform, filling each node's hardware threads in
/// order before moving to the next node (the scheduler behaviour in the
/// paper). `max_ranks_per_node` < hw_threads_per_node gives the paper's
/// "EC2-4" style undersubscribed placements. Throws std::invalid_argument
/// carrying placement_error() if the job does not fit. NUMA factors are drawn
/// deterministically from `seed` on NUMA-masked platforms.
std::vector<RankPlacement> place_block(const Platform& p, int np, int max_ranks_per_node,
                                       const WorkloadTraits& traits, std::uint64_t seed);

/// Why place_block would reject `np` (>= 1) ranks at `max_ranks_per_node`
/// on `p`, naming the platform's rank limit; empty when the job fits.
std::string placement_error(const Platform& p, int np, int max_ranks_per_node);

/// Simulated duration of `ref_seconds` of reference work for one rank.
/// `ref_seconds` are defined as wall seconds of that work on an unloaded DCC
/// core. Deterministic except for the jitter drawn from `rng`.
sim::SimTime compute_time(const Platform& p, const RankPlacement& place,
                          const WorkloadTraits& traits, double ref_seconds, sim::Rng& rng);

/// The contention multiplier applied when `ranks_on_node` ranks with the
/// given traits share one node's memory system (exposed for tests/benches).
double contention_factor(const Platform& p, int ranks_on_node, const WorkloadTraits& traits);

}  // namespace cirrus::plat
