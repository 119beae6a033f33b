// Switch-fabric topology, static routing and rank placement for the cirrus
// simulator.
//
// The paper's central variable is the interconnect: Vayu's QDR InfiniBand
// fat-tree, DCC's VMware vSwitch over an effective 1 GigE, and EC2's 10 GigE
// with cluster placement groups. The base network model (cirrus::net) prices
// every message with per-node NIC TX/RX ports only; this module adds the
// fabric *between* the NICs:
//
//   * a topology graph — nodes attached to switches, switches joined by
//     links with their own bandwidth and per-hop latency;
//   * deterministic static routing — route(src, dst) always returns the same
//     link sequence for the same topology (destination-hashed uplink choice,
//     like statically routed InfiniBand fat-trees, so incast concentrates on
//     one spine plane instead of spreading adaptively);
//   * builders for the study's four fabric shapes:
//       - ideal crossbar          — no fabric links at all; every route is
//                                   empty, so the model reduces *exactly* to
//                                   the legacy NIC-only cost model (the
//                                   back-compatible default);
//       - two-level fat-tree      — leaf switches of `leaf_radix` nodes with
//                                   `leaf_radix / oversubscription` uplinks
//                                   to a spine (Vayu; oversubscription > 1
//                                   makes cross-leaf all-to-all congest);
//       - shared backplane        — one serial link that every inter-node
//                                   flow traverses (DCC's software vSwitch);
//       - placement groups        — full bisection inside a group, a shared
//                                   congested core uplink/downlink pair per
//                                   group across groups (EC2 10 GigE).
//   * placement policies mapping a job's logical nodes onto fabric nodes
//     (contiguous / scattered / placement-group), so locality is a swept
//     variable rather than an assumption.
//
// Endpoint NICs stay modelled by net::Network (TX/RX serial ports); routes
// contain only the links *between* switches. This is what makes the crossbar
// byte-identical to the pre-topology model: an empty route adds no events,
// no RNG draws and no time.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "platform/platform.hpp"

namespace cirrus::topo {

/// The fabric shapes of the study.
enum class Kind : char {
  Crossbar = 'x',         ///< ideal non-blocking crossbar (legacy model)
  FatTree = 'f',          ///< two-level fat-tree with oversubscribed uplinks
  VSwitch = 'v',          ///< single shared software-switch backplane
  PlacementGroups = 'p',  ///< full-bisection groups over a congested core
};

const char* to_string(Kind k) noexcept;
/// Parses "crossbar", "fattree", "vswitch", "pgroups" (case-insensitive);
/// throws std::invalid_argument otherwise.
Kind kind_from_string(const std::string& s);

/// How a job's logical nodes map onto fabric nodes.
enum class Placement : char {
  Contiguous = 'c',  ///< fill leaves/groups in order (the HPC scheduler default)
  Scattered = 's',   ///< round-robin across leaves (worst-case cloud allocation)
  Group = 'g',       ///< pack into as few placement groups as possible
};

const char* to_string(Placement p) noexcept;
/// Parses "contig", "scatter", "pgroup" (case-insensitive); throws
/// std::invalid_argument otherwise.
Placement placement_from_string(const std::string& s);

/// Parameters describing a fabric to build. Plain data; sweepable. The
/// link speeds and latencies are fixed: every switch hop costs 0.5 us, the
/// VSwitch backplane runs at the NIC's bandwidth, and a placement group's
/// core links run at 0.4x the NIC's bandwidth (the no-placement-group
/// degradation the paper observed) with 80 us extra one-way latency, split
/// evenly over the up and down links. The fabric spans the job's nodes
/// rounded up to whole leaves/groups.
struct TopoSpec {
  Kind kind = Kind::Crossbar;
  /// Nodes per leaf switch (FatTree) or per placement group (PlacementGroups).
  int leaf_radix = 4;
  /// FatTree: ratio of leaf downlink to uplink capacity; uplinks per leaf =
  /// max(1, round(leaf_radix / oversubscription)). 1.0 = full bisection.
  double oversubscription = 1.0;
};

/// Short self-describing tag for sweep tables, e.g. "fattree-2:1",
/// "pgroups-4", "crossbar".
std::string label(const TopoSpec& spec);

/// One fabric link: a serial resource with its own bandwidth and latency.
struct Link {
  std::string name;         ///< e.g. "leaf2.up1", "backplane", "pg0.down"
  double bandwidth_Bps = 0;
  double latency_us = 0;    ///< per-hop latency added while traversing
};

/// The (at most two-hop) link sequence of one static route. Endpoint NICs
/// are not included; an empty route means the fabric is non-blocking for
/// this pair.
struct Route {
  std::array<int, 2> links{{-1, -1}};
  int n = 0;
};

/// An immutable fabric: nodes attached to switches, switches joined by
/// links, and a deterministic static routing function over them.
class Topology {
 public:
  /// Builds the fabric described by `spec` for a job spanning `job_nodes`
  /// nodes with NICs of `nic`. A fat-tree or placement-group fabric rounds
  /// the job up to whole leaves/groups; it is never smaller.
  static Topology build(const TopoSpec& spec, const plat::NicModel& nic, int job_nodes);

  [[nodiscard]] Kind kind() const noexcept { return spec_.kind; }
  [[nodiscard]] const TopoSpec& spec() const noexcept { return spec_; }
  /// Fabric nodes (>= the job's node span).
  [[nodiscard]] int nodes() const noexcept { return nodes_; }
  /// Leaf switches / placement groups (1 for VSwitch, 0 for Crossbar).
  [[nodiscard]] int groups() const noexcept { return groups_; }
  [[nodiscard]] int nodes_per_group() const noexcept { return per_group_; }
  /// FatTree uplinks per leaf (0 otherwise).
  [[nodiscard]] int uplinks_per_leaf() const noexcept { return uplinks_; }
  [[nodiscard]] const std::vector<Link>& links() const noexcept { return links_; }

  /// Leaf switch / placement group of fabric node `node` in [0, nodes())
  /// (-1 on the crossbar).
  [[nodiscard]] int group_of(int node) const noexcept {
    return groups_ > 0 ? group_[static_cast<std::size_t>(node)] : -1;
  }

  /// Static route between two distinct fabric nodes. Deterministic: the same
  /// (topology, src, dst) always yields the same links, independent of call
  /// order, so sweeps are byte-identical at any parallelism.
  [[nodiscard]] Route route(int src, int dst) const noexcept;

  /// One-line human description, e.g.
  /// "fat-tree: 2 leaves x 4 nodes, 2 uplinks/leaf (2:1 oversubscribed)".
  [[nodiscard]] std::string describe() const;

 private:
  Topology() = default;

  TopoSpec spec_;
  int nodes_ = 0;
  int groups_ = 0;
  int per_group_ = 1;
  int uplinks_ = 0;   // fat-tree uplinks per leaf
  std::vector<Link> links_;
  // Routing tables, filled by build() so route() divides nothing: each
  // fabric node's leaf/group (empty on the crossbar) and, on a fat-tree, the
  // destination-hashed spine plane of the flows towards it.
  std::vector<int> group_;
  std::vector<int> plane_;
};

/// Maps a job's logical nodes [0, job_nodes) onto distinct fabric nodes
/// under `policy`. Deterministic per (topology, policy, seed). Contiguous is
/// always the identity, so the default placement is event-neutral.
std::vector<int> place_nodes(const Topology& topo, Placement policy, int job_nodes,
                             std::uint64_t seed);

}  // namespace cirrus::topo
