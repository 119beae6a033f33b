// Network cost models for the cirrus simulator.
//
// A message between two ranks is priced by a LogGP-style model with explicit
// resource contention:
//
//   * inter-node: the sender's NIC TX port is a serial resource (transfers
//     queue FIFO); the wire adds base latency plus an optional heavy-tailed
//     jitter spike (vSwitch / hypervisor packet processing); when a fabric
//     topology is installed (cirrus::topo), the routed path's links are then
//     reserved one by one — each fabric link is its own serial resource, so
//     uplink oversubscription and incast congestion *emerge* from queueing
//     instead of being approximated at the NIC; finally the receiver's NIC
//     RX port is a last serial resource. Transfers are cut-through: a single
//     stream on an idle path achieves the bottleneck link bandwidth.
//   * intra-node: a shared-memory copy at the platform's shm bandwidth and
//     latency; no NIC or fabric involvement.
//
// Without a topology (or with the ideal crossbar, whose routes are empty)
// the fabric stage vanishes and the model is bit-identical to the historic
// NIC-only form.
//
// The shared filesystem is modelled as one serial server per job with
// separate read/write bandwidths and a per-open latency (NFS vs Lustre).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "platform/platform.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "topo/topo.hpp"

namespace cirrus::net {

/// Utilisation counters for one fabric link, exported with IPM output.
struct LinkStats {
  std::uint64_t transfers = 0;  ///< messages routed over the link
  std::uint64_t bytes = 0;      ///< payload bytes carried
  sim::SimTime busy = 0;        ///< total serialisation time reserved
  sim::SimTime queued = 0;      ///< total head-of-line waiting before service
};

/// Per-node NIC utilisation counters (TX/RX serial-port occupancy). On the
/// ideal crossbar there are no fabric links, so these are the network-side
/// utilisation signal; with a fabric they complement LinkStats.
struct NicStats {
  std::uint64_t tx_transfers = 0;  ///< inter-node messages injected here
  std::uint64_t rx_transfers = 0;  ///< inter-node messages received here
  std::uint64_t tx_bytes = 0;
  std::uint64_t rx_bytes = 0;
  sim::SimTime tx_busy = 0;    ///< total TX port serialisation time
  sim::SimTime rx_busy = 0;    ///< total RX port occupancy time
  sim::SimTime tx_queued = 0;  ///< waiting for the TX port before injection
};

/// Job-wide intrinsic network counters, maintained inline by transfer() /
/// control_delay(). Deterministic (virtual-time derived) and cheap enough to
/// keep always on.
struct NetStats {
  std::uint64_t transfers_internode = 0;
  std::uint64_t transfers_intranode = 0;
  std::uint64_t bytes_internode = 0;
  std::uint64_t bytes_intranode = 0;
  std::uint64_t routed_hops = 0;        ///< fabric link reservations made
  std::uint64_t incast_collisions = 0;  ///< RX-port incast penalty applications
  std::uint64_t jitter_spikes = 0;      ///< wire-latency jitter draws that fired
  std::uint64_t control_messages = 0;   ///< RTS/CTS latency-only messages priced
};

/// Timing of one message as decided by the network model.
struct TransferTiming {
  /// Virtual time at which the sender's CPU is free again (injection done).
  sim::SimTime sender_free;
  /// Virtual time at which the full payload is available at the receiver.
  sim::SimTime arrival;
};

/// Per-job network state: NIC port availability and the jitter process.
class Network {
 public:
  /// `nodes` is the number of nodes the job spans.
  Network(sim::Engine& engine, const plat::Platform& platform, int nodes, std::uint64_t seed);

  /// Prices a `bytes`-byte message from `src_node` to `dst_node` starting at
  /// the current virtual time, reserving NIC resources. Call exactly once
  /// per simulated wire transfer, in virtual-time order.
  TransferTiming transfer(int src_node, int dst_node, std::size_t bytes);

  /// Prices a small control message (rendezvous RTS/CTS): latency-only (wire
  /// plus any fabric hop latencies on the routed path), no bandwidth
  /// reservation.
  sim::SimTime control_delay(int src_node, int dst_node);

  [[nodiscard]] const plat::Platform& platform() const noexcept { return platform_; }

  /// Fraction of communication time that IPM should book as system time for
  /// a transfer between these nodes.
  [[nodiscard]] double sys_frac(int src_node, int dst_node) const noexcept {
    return src_node == dst_node ? platform_.shm.sys_frac : platform_.nic.sys_frac;
  }

  /// Installs a switch fabric between the NICs: inter-node transfers walk
  /// `topo`'s static route and reserve each link as a serial resource.
  /// `node_map` maps the job's logical nodes onto fabric nodes (see
  /// topo::place_nodes); empty means identity. A null topology — or one with
  /// only empty routes, like the ideal crossbar — leaves the cost model
  /// bit-identical to the NIC-only form.
  void set_topology(std::shared_ptr<const topo::Topology> topo, std::vector<int> node_map);

  /// The installed fabric (null when running NIC-only).
  [[nodiscard]] const topo::Topology* topology() const noexcept { return topo_.get(); }
  /// Shared ownership of the fabric, for results that outlive the network.
  [[nodiscard]] std::shared_ptr<const topo::Topology> topology_ptr() const noexcept {
    return topo_;
  }

  /// Per-link utilisation counters, index-aligned with topology()->links().
  /// Empty when no fabric is installed.
  [[nodiscard]] const std::vector<LinkStats>& link_stats() const noexcept {
    return link_stats_;
  }

  /// Per-node NIC utilisation counters, index-aligned with job nodes.
  [[nodiscard]] const std::vector<NicStats>& nic_stats() const noexcept {
    return nic_stats_;
  }

  /// Job-wide intrinsic counters (see NetStats).
  [[nodiscard]] const NetStats& stats() const noexcept { return stats_; }

 private:
  /// Fabric node of a logical job node (identity without a placement map).
  [[nodiscard]] int fabric_node(int node) const noexcept {
    return node_map_.empty() ? node : node_map_[static_cast<std::size_t>(node)];
  }

  sim::SimTime wire_latency(bool internode);
  /// True when the installed fabric has links; the crossbar has none, and
  /// so only empty routes.
  [[nodiscard]] bool has_fabric_links() const noexcept { return !link_free_.empty(); }

  sim::Engine& engine_;
  plat::Platform platform_;
  // Platform constants in ns, converted once at construction.
  sim::SimTime overhead_ns_;  // per-message NIC overhead
  sim::SimTime nic_lat_ns_;   // base wire latency (no jitter spike)
  sim::SimTime shm_lat_ns_;   // shared-memory latency
  std::vector<sim::SimTime> tx_free_;  // per node
  std::vector<sim::SimTime> rx_free_;  // per node
  std::vector<int> rx_last_src_;       // source node of each RX port's occupant
  std::vector<NicStats> nic_stats_;    // per node
  NetStats stats_;
  sim::Rng rng_;
  std::shared_ptr<const topo::Topology> topo_;  // null: NIC-only model
  std::vector<int> node_map_;                   // logical -> fabric node
  std::vector<sim::SimTime> link_free_;         // per fabric link
  std::vector<LinkStats> link_stats_;           // per fabric link
};

/// A shared filesystem server: reads/writes are FIFO-serialised, modelling
/// a single NFS server or a Lustre OSS set (the latter just has much higher
/// bandwidth). One instance per job.
class FileSystem {
 public:
  FileSystem(sim::Engine& engine, const plat::FsModel& model);

  /// Returns the virtual time at which a read of `bytes` issued now
  /// completes (reserving the server). `open_file` adds the per-open cost.
  sim::SimTime read(std::size_t bytes, bool open_file);
  sim::SimTime write(std::size_t bytes, bool open_file);

  [[nodiscard]] const plat::FsModel& model() const noexcept { return model_; }

 private:
  sim::SimTime request(std::size_t bytes, double bw_Bps, bool open_file);

  sim::Engine& engine_;
  plat::FsModel model_;
  sim::SimTime server_free_ = 0;
};

}  // namespace cirrus::net
