#include "platform/platform.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>

namespace cirrus::plat {

namespace {

/// Reference clock: the DCC E5520. Workload "reference seconds" are wall
/// seconds of that work on one unloaded DCC core.
constexpr double kRefClockGhz = 2.27;

}  // namespace

Platform vayu() {
  Platform p;
  p.name = "vayu";
  p.nodes = 1492;
  p.cores_per_node = 8;
  p.hw_threads_per_node = 8;
  p.sockets_per_node = 2;
  p.mem_per_node_GB = 24.0;
  p.interconnect = "QDR IB";

  p.compute.clock_ghz = 2.93;
  p.compute.mem_speed = 1.43;  // X5570 DDR3-1333 vs E5520 DDR3-800
  p.compute.virt_overhead = 1.0;
  p.compute.has_smt = false;
  p.compute.numa_masked = false;  // OpenMPI enforces NUMA affinity (paper §V-C2)
  p.compute.jitter_sigma = 0.004;
  p.compute.mem_contention = 0.255;

  p.nic.bandwidth_Bps = 3.2e9;
  p.nic.latency_us = 1.7;
  p.nic.per_msg_overhead_us = 0.4;
  p.nic.jitter_prob = 0.02;
  p.nic.jitter_mean_us = 2.0;
  p.nic.sys_frac = 0.08;  // user-space RDMA: little system time
  p.nic.incast_penalty = 2.2;  // static-routing collisions under all-to-all

  p.shm.bandwidth_Bps = 5e9;
  p.shm.latency_us = 0.5;

  p.fs = FsModel{.read_Bps = 500e6, .write_Bps = 300e6, .open_latency_ms = 0.5,
                 .name = "Lustre"};
  // Vayu's /short really is striped Lustre over QDR IB: many OSSes, fast
  // MDS. The object backend models a hypothetical on-site store reached
  // over the same fabric.
  p.storage = StorageCalib{.lustre_oss = 8,
                           .lustre_oss_read_Bps = 280e6,
                           .lustre_oss_write_Bps = 200e6,
                           .lustre_mds_open_ms = 0.3,
                           .lustre_stripe_bytes = 1 << 20,
                           .object_frontends = 8,
                           .object_stream_Bps = 100e6,
                           .object_request_ms = 10.0};
  return p;
}

Platform dcc() {
  Platform p;
  p.name = "dcc";
  p.nodes = 8;
  p.cores_per_node = 8;
  p.hw_threads_per_node = 8;
  p.sockets_per_node = 2;
  p.mem_per_node_GB = 40.0;
  p.interconnect = "GigE (E1000 vNIC)";

  p.compute.clock_ghz = 2.27;
  p.compute.mem_speed = 1.0;
  p.compute.virt_overhead = 1.02;  // ESX CPU virtualisation cost
  p.compute.has_smt = false;
  p.compute.numa_masked = true;  // ESX masks NUMA from guests (paper §V-B)
  p.compute.numa_penalty_max = 0.22;
  p.compute.jitter_sigma = 0.02;
  p.compute.mem_contention = 0.255;

  // E1000 (1GigE-class) vNIC on the ESX vSwitch; packets traverse a software
  // switch, so latency is high and heavy-tailed (paper Fig 2: "latencies
  // observed on DCC fluctuated from 1 byte to 512KB messages").
  p.nic.bandwidth_Bps = 190e6;
  p.nic.latency_us = 55.0;
  p.nic.per_msg_overhead_us = 5.0;
  // Rare but long vSwitch stalls: the tail is heavy enough to move even
  // 100-iteration OSU averages around (Fig 2's fluctuating DCC curve).
  p.nic.jitter_prob = 0.06;
  p.nic.jitter_mean_us = 900.0;
  p.nic.half_duplex = true;  // one softswitch thread handles both directions
  p.nic.sys_frac = 0.85;  // softirq packet processing shows as system time

  p.shm.bandwidth_Bps = 2.5e9;
  p.shm.latency_us = 0.9;

  p.fs = FsModel{.read_Bps = 45e6, .write_Bps = 30e6, .open_latency_ms = 5.0,
                 .name = "NFS"};
  // A virtualised parallel FS / Ceph-RGW-like object store behind the same
  // bonded-GigE vSwitch: modest per-server streams, metadata costs inflated
  // by the hypervisor.
  p.storage = StorageCalib{.lustre_oss = 4,
                           .lustre_oss_read_Bps = 80e6,
                           .lustre_oss_write_Bps = 55e6,
                           .lustre_mds_open_ms = 2.0,
                           .lustre_stripe_bytes = 1 << 20,
                           .object_frontends = 6,
                           .object_stream_Bps = 60e6,
                           .object_request_ms = 15.0};
  return p;
}

Platform ec2() {
  Platform p;
  p.name = "ec2";
  p.nodes = 4;
  p.cores_per_node = 8;
  p.hw_threads_per_node = 16;  // HyperThreading enabled: 16 schedulable slots
  p.sockets_per_node = 2;
  p.mem_per_node_GB = 20.0;
  p.interconnect = "10GigE";

  p.compute.clock_ghz = 2.93;
  p.compute.mem_speed = 1.43;
  p.compute.virt_overhead = 1.15;  // Xen + co-tenant noise (Table III rcomp 1.17)
  p.compute.smt_speedup = 1.05;    // two HTs deliver ~1.05x one thread
  p.compute.has_smt = true;
  p.compute.numa_masked = true;
  p.compute.numa_penalty_max = 0.25;
  p.compute.jitter_sigma = 0.05;
  p.compute.mem_contention = 0.255;

  // 10GigE inside a cluster placement group; ~560 MB/s sustained (Fig 1).
  p.nic.bandwidth_Bps = 560e6;
  p.nic.latency_us = 52.0;
  p.nic.per_msg_overhead_us = 3.0;
  p.nic.jitter_prob = 0.10;
  p.nic.jitter_mean_us = 60.0;
  p.nic.sys_frac = 0.55;
  p.nic.incast_penalty = 2.5;  // Xen netback collapses under many flows

  p.shm.bandwidth_Bps = 3e9;
  p.shm.latency_us = 0.8;

  p.fs = FsModel{.read_Bps = 180e6, .write_Bps = 100e6, .open_latency_ms = 3.0,
                 .name = "NFS"};
  // EBS-backed Lustre is possible but mediocre on cc1.4xlarge; S3 is the
  // native store — high request latency, wide front-end pool, so aggregate
  // bandwidth is excellent while per-file costs are the worst of the three.
  p.storage = StorageCalib{.lustre_oss = 4,
                           .lustre_oss_read_Bps = 120e6,
                           .lustre_oss_write_Bps = 80e6,
                           .lustre_mds_open_ms = 4.0,
                           .lustre_stripe_bytes = 1 << 20,
                           .object_frontends = 16,
                           .object_stream_Bps = 80e6,
                           .object_request_ms = 30.0};
  return p;
}

Platform vayu2020() {
  Platform p;
  p.name = "vayu2020";
  p.generation = 2020;
  p.nodes = 3024;  // Gadi-class machine (Vayu's successor at the same site)
  p.cores_per_node = 48;
  p.hw_threads_per_node = 48;
  p.sockets_per_node = 2;
  p.mem_per_node_GB = 192.0;
  p.interconnect = "100 Gb/s IB fat-tree";

  // clock_ghz is an *effective* clock relative to the E5520 reference core:
  // 3.2 GHz Cascade Lake x ~2.1 per-clock throughput (AVX-512 + FMA + wider
  // issue) on the mixed paper workloads.
  p.compute.clock_ghz = 6.7;
  p.compute.mem_speed = 3.0;  // 6-channel DDR4-2933 per core vs DDR3-800
  p.compute.virt_overhead = 1.0;
  p.compute.has_smt = false;
  p.compute.numa_masked = false;
  p.compute.jitter_sigma = 0.003;  // lean compute-node OS, core specialisation
  p.compute.mem_contention = 0.14;  // many more channels: milder roofline slope

  // HDR100-class fabric: ~12 GB/s sustained p2p, ~1.1 us end to end,
  // user-space RDMA so per-message CPU cost and system time stay tiny.
  p.nic.bandwidth_Bps = 12e9;
  p.nic.latency_us = 1.1;
  p.nic.per_msg_overhead_us = 0.3;
  p.nic.jitter_prob = 0.01;
  p.nic.jitter_mean_us = 1.5;
  p.nic.sys_frac = 0.05;
  p.nic.incast_penalty = 1.8;  // adaptive routing beats Vayu's static routes

  p.shm.bandwidth_Bps = 12e9;
  p.shm.latency_us = 0.4;

  p.fs = FsModel{.read_Bps = 4e9, .write_Bps = 3e9, .open_latency_ms = 0.3,
                 .name = "Lustre"};
  p.storage = StorageCalib{.lustre_oss = 16,
                           .lustre_oss_read_Bps = 1.2e9,
                           .lustre_oss_write_Bps = 0.9e9,
                           .lustre_mds_open_ms = 0.15,
                           .lustre_stripe_bytes = 1 << 20,
                           .object_frontends = 16,
                           .object_stream_Bps = 400e6,
                           .object_request_ms = 5.0};
  return p;
}

Platform ec2_2020() {
  Platform p;
  p.name = "ec2_2020";
  p.generation = 2020;
  p.nodes = 64;  // a c5n.18xlarge cluster placement group
  p.cores_per_node = 36;
  p.hw_threads_per_node = 36;  // HT disabled: ranks never share a core
  p.sockets_per_node = 2;
  p.mem_per_node_GB = 192.0;
  p.interconnect = "EFA 100 Gb/s (placement group)";

  // 3.0 GHz Skylake x ~2.0 per-clock throughput; Nitro offloads the
  // hypervisor to hardware, so the virtualisation tax all but vanishes.
  p.compute.clock_ghz = 6.0;
  p.compute.mem_speed = 2.8;
  p.compute.virt_overhead = 1.01;
  p.compute.smt_speedup = 1.0;
  p.compute.has_smt = false;
  p.compute.numa_masked = false;  // Nitro passes the topology through
  p.compute.jitter_sigma = 0.01;  // co-tenant noise much reduced, not gone
  p.compute.mem_contention = 0.14;

  // EFA: OS-bypass SRD transport at 100 Gb/s. Bandwidth is at near parity
  // with the HPC fabric; base latency (~15 us through the SRD relays) is
  // the one dimension still an order of magnitude behind.
  p.nic.bandwidth_Bps = 11e9;
  p.nic.latency_us = 15.5;
  p.nic.per_msg_overhead_us = 0.5;  // user-space libfabric: no syscall per msg
  p.nic.jitter_prob = 0.03;
  p.nic.jitter_mean_us = 20.0;
  p.nic.sys_frac = 0.06;  // kernel is out of the datapath
  p.nic.half_duplex = false;
  p.nic.incast_penalty = 1.6;  // SRD sprays flows across paths

  p.shm.bandwidth_Bps = 11e9;
  p.shm.latency_us = 0.5;

  p.fs = FsModel{.read_Bps = 800e6, .write_Bps = 500e6, .open_latency_ms = 1.0,
                 .name = "NFS"};
  // FSx-for-Lustre-class striped FS and the native object store with a wide
  // front-end pool and single-digit-ms first-byte latency.
  p.storage = StorageCalib{.lustre_oss = 8,
                           .lustre_oss_read_Bps = 400e6,
                           .lustre_oss_write_Bps = 300e6,
                           .lustre_mds_open_ms = 1.0,
                           .lustre_stripe_bytes = 1 << 20,
                           .object_frontends = 32,
                           .object_stream_Bps = 200e6,
                           .object_request_ms = 15.0};
  return p;
}

const std::vector<std::string>& known_names() {
  static const std::vector<std::string> names = {"dcc", "ec2", "ec2_2020", "vayu",
                                                 "vayu2020"};
  return names;
}

Platform by_name(const std::string& name) {
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lower == "vayu") return vayu();
  if (lower == "dcc") return dcc();
  if (lower == "ec2") return ec2();
  if (lower == "vayu2020") return vayu2020();
  if (lower == "ec2_2020") return ec2_2020();
  std::string valid;
  for (const auto& n : known_names()) valid += (valid.empty() ? "" : ", ") + n;
  throw std::invalid_argument("unknown platform '" + name + "' (valid: " + valid + ")");
}

std::vector<Platform> study_platforms() { return {dcc(), ec2(), vayu()}; }

std::vector<Platform> generation_platforms(int generation) {
  if (generation == 2012) return study_platforms();
  if (generation == 2020) return {ec2_2020(), vayu2020()};
  throw std::invalid_argument("unknown platform generation " + std::to_string(generation) +
                              " (valid: 2012, 2020)");
}

std::vector<Platform> all_platforms() {
  auto out = study_platforms();
  for (auto& p : generation_platforms(2020)) out.push_back(std::move(p));
  return out;
}

std::string generation_name(const std::string& base, int generation) {
  const Platform p = by_name(base);  // validates + canonicalises the spelling
  if (p.generation == generation) return p.name;
  if (generation == 2012) {
    if (p.name == "vayu2020") return "vayu";
    if (p.name == "ec2_2020") return "ec2";
  } else if (generation == 2020) {
    if (p.name == "vayu") return "vayu2020";
    if (p.name == "ec2") return "ec2_2020";
  }
  throw std::invalid_argument("platform '" + p.name + "' has no gen-" +
                              std::to_string(generation) + " model");
}

namespace {
int ranks_per_node(const Platform& p, int max_ranks_per_node) {
  return max_ranks_per_node > 0 ? std::min(max_ranks_per_node, p.hw_threads_per_node)
                                : p.hw_threads_per_node;
}
}  // namespace

std::string placement_error(const Platform& p, int np, int max_ranks_per_node) {
  const int per_node = ranks_per_node(p, max_ranks_per_node);
  const long long nodes_needed = (static_cast<long long>(np) + per_node - 1) / per_node;
  if (nodes_needed <= p.nodes) return {};
  return "job of " + std::to_string(np) + " ranks at " + std::to_string(per_node) +
         "/node does not fit on " + p.name + " (" + std::to_string(p.nodes) +
         " nodes: at most " + std::to_string(static_cast<long long>(p.nodes) * per_node) +
         " ranks)";
}

std::vector<RankPlacement> place_block(const Platform& p, int np, int max_ranks_per_node,
                                       const WorkloadTraits& traits, std::uint64_t seed) {
  if (np <= 0) throw std::invalid_argument("place_block: np must be positive");
  if (const std::string why = placement_error(p, np, max_ranks_per_node); !why.empty()) {
    throw std::invalid_argument("place_block: " + why);
  }
  const int per_node = ranks_per_node(p, max_ranks_per_node);
  const int nodes_needed = (np + per_node - 1) / per_node;

  std::vector<RankPlacement> out(static_cast<std::size_t>(np));
  // Ranks fill node 0's slots first, then node 1, ... (block placement, the
  // scheduler behaviour assumed throughout the paper).
  std::vector<int> node_count(static_cast<std::size_t>(nodes_needed), 0);
  for (int r = 0; r < np; ++r) {
    const int node = r / per_node;
    const int slot = r % per_node;
    out[static_cast<std::size_t>(r)].node = node;
    out[static_cast<std::size_t>(r)].slot = slot;
    ++node_count[static_cast<std::size_t>(node)];
  }

  sim::Rng numa_rng = sim::Rng(seed).fork(0xA117);
  for (int r = 0; r < np; ++r) {
    auto& pl = out[static_cast<std::size_t>(r)];
    const int n_on_node = node_count[static_cast<std::size_t>(pl.node)];
    pl.ranks_on_node = n_on_node;
    // HT sibling slots are (s, s + cores). A rank shares its core when the
    // sibling slot is also occupied.
    if (p.compute.has_smt && n_on_node > p.cores_per_node) {
      const int s = pl.slot;
      pl.shares_core = (s >= p.cores_per_node) || (s < n_on_node - p.cores_per_node);
    }
    // On NUMA-masked platforms the guest cannot pin memory, so some ranks'
    // pages land on the remote socket. The penalty is fixed per job (pages
    // do not migrate), drawn deterministically from the seed.
    if (p.compute.numa_masked && traits.mem_intensity > 0.0) {
      const double p_bad = n_on_node > p.cores_per_socket() ? 0.5 : 0.25;
      if (numa_rng.chance(p_bad)) {
        pl.numa_factor =
            1.0 + traits.mem_intensity * numa_rng.uniform(0.0, p.compute.numa_penalty_max);
      }
    }
  }
  return out;
}

double contention_factor(const Platform& p, int ranks_on_node, const WorkloadTraits& traits) {
  const int cores_busy = std::min(ranks_on_node, p.cores_per_node);
  if (cores_busy <= 1) return 1.0;
  const double k = p.compute.mem_contention * traits.mem_intensity;
  return 1.0 + k * std::pow(static_cast<double>(cores_busy - 1), 0.9);
}

sim::SimTime compute_time(const Platform& p, const RankPlacement& place,
                          const WorkloadTraits& traits, double ref_seconds, sim::Rng& rng) {
  if (ref_seconds <= 0.0) return 0;
  const double mi = traits.mem_intensity;
  const double cpu_ratio = kRefClockGhz / p.compute.clock_ghz;
  const double mem_ratio = 1.0 / p.compute.mem_speed;
  double t = ref_seconds * ((1.0 - mi) * cpu_ratio + mi * mem_ratio);
  t *= contention_factor(p, place.ranks_on_node, traits);
  if (place.shares_core) t *= 2.0 / p.compute.smt_speedup;
  t *= place.numa_factor;
  t *= p.compute.virt_overhead;
  if (p.compute.jitter_sigma > 0.0) t *= rng.lognormal_median(1.0, p.compute.jitter_sigma);
  return sim::from_seconds(t);
}

}  // namespace cirrus::plat
