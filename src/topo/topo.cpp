#include "topo/topo.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace cirrus::topo {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

/// splitmix64: a fixed, platform-independent integer mix so static routes
/// and scattered placements are identical on every host.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

int ceil_div(int a, int b) { return (a + b - 1) / b; }

constexpr double kHopLatencyUs = 0.5;         // per-fabric-link store latency (switch hop)
constexpr double kCoreBwFraction = 0.4;       // placement-group core link vs NIC bandwidth
constexpr double kCoreExtraLatencyUs = 80.0;  // one-way, split over the up and down links

}  // namespace

const char* to_string(Kind k) noexcept {
  switch (k) {
    case Kind::Crossbar: return "crossbar";
    case Kind::FatTree: return "fattree";
    case Kind::VSwitch: return "vswitch";
    case Kind::PlacementGroups: return "pgroups";
  }
  return "?";
}

Kind kind_from_string(const std::string& s) {
  const std::string l = lower(s);
  if (l == "crossbar" || l == "ideal") return Kind::Crossbar;
  if (l == "fattree" || l == "fat-tree") return Kind::FatTree;
  if (l == "vswitch" || l == "backplane") return Kind::VSwitch;
  if (l == "pgroups" || l == "placement-groups") return Kind::PlacementGroups;
  throw std::invalid_argument("unknown topology: " + s +
                              " (want crossbar|fattree|vswitch|pgroups)");
}

const char* to_string(Placement p) noexcept {
  switch (p) {
    case Placement::Contiguous: return "contig";
    case Placement::Scattered: return "scatter";
    case Placement::Group: return "pgroup";
  }
  return "?";
}

Placement placement_from_string(const std::string& s) {
  const std::string l = lower(s);
  if (l == "contig" || l == "contiguous" || l == "block") return Placement::Contiguous;
  if (l == "scatter" || l == "scattered" || l == "cyclic") return Placement::Scattered;
  if (l == "pgroup" || l == "group" || l == "placement-group") return Placement::Group;
  throw std::invalid_argument("unknown placement: " + s + " (want contig|scatter|pgroup)");
}

std::string label(const TopoSpec& spec) {
  switch (spec.kind) {
    case Kind::Crossbar:
      return "crossbar";
    case Kind::FatTree: {
      // Render the oversubscription as the conventional N:1 ratio.
      const double os = spec.oversubscription;
      if (std::abs(os - std::round(os)) < 1e-9) {
        return "fattree-" + std::to_string(static_cast<int>(std::round(os))) + ":1";
      }
      char buf[32];
      std::snprintf(buf, sizeof buf, "fattree-%.2g:1", os);
      return buf;
    }
    case Kind::VSwitch:
      return "vswitch";
    case Kind::PlacementGroups:
      return "pgroups-" + std::to_string(spec.leaf_radix);
  }
  return "?";
}

Topology Topology::build(const TopoSpec& spec, const plat::NicModel& nic, int job_nodes) {
  if (job_nodes < 1) throw std::invalid_argument("topo::build: need at least one node");
  Topology t;
  t.spec_ = spec;

  if (spec.kind == Kind::Crossbar) {
    // Non-blocking: no fabric links, every route empty. The cost model
    // reduces exactly to the per-node NIC ports.
    t.nodes_ = job_nodes;
    t.groups_ = 0;
    t.per_group_ = t.nodes_;
    return t;
  }

  if (spec.kind == Kind::VSwitch) {
    t.nodes_ = job_nodes;
    t.groups_ = 1;
    t.per_group_ = t.nodes_;
    t.group_.assign(static_cast<std::size_t>(t.nodes_), 0);
    t.links_.push_back(Link{"backplane", nic.bandwidth_Bps, kHopLatencyUs});
    return t;
  }

  const int radix = std::max(1, spec.leaf_radix);
  const int groups = ceil_div(job_nodes, radix);
  t.groups_ = groups;
  t.per_group_ = radix;
  t.nodes_ = groups * radix;  // whole leaves/groups only
  t.group_.resize(static_cast<std::size_t>(t.nodes_));
  for (int n = 0; n < t.nodes_; ++n) t.group_[static_cast<std::size_t>(n)] = n / radix;

  if (spec.kind == Kind::FatTree) {
    const double os = std::max(1.0, spec.oversubscription);
    const int u = std::clamp(static_cast<int>(std::lround(radix / os)), 1, radix);
    t.uplinks_ = u;
    // Destination-hashed spine plane, as a statically routed fat-tree
    // resolves by destination LID: every flow towards a node shares one
    // plane, so incast collides on the same uplink/downlink pair.
    t.plane_.resize(static_cast<std::size_t>(t.nodes_));
    for (int n = 0; n < t.nodes_; ++n) {
      t.plane_[static_cast<std::size_t>(n)] =
          static_cast<int>(mix64(static_cast<std::uint64_t>(n)) % static_cast<std::uint64_t>(u));
    }
    // Layout: leaf l's uplinks are [l*u, l*u + u), then all downlinks follow
    // with the same per-leaf stride.
    t.links_.reserve(static_cast<std::size_t>(2 * groups * u));
    for (int l = 0; l < groups; ++l) {
      for (int i = 0; i < u; ++i) {
        t.links_.push_back(Link{"leaf" + std::to_string(l) + ".up" + std::to_string(i),
                                nic.bandwidth_Bps, kHopLatencyUs});
      }
    }
    for (int l = 0; l < groups; ++l) {
      for (int i = 0; i < u; ++i) {
        t.links_.push_back(Link{"leaf" + std::to_string(l) + ".down" + std::to_string(i),
                                nic.bandwidth_Bps, kHopLatencyUs});
      }
    }
    return t;
  }

  // PlacementGroups: one shared up/down pair per group onto the core; the
  // core link speed is what a flow gets with no full-bisection guarantee.
  const double core_bw = kCoreBwFraction * nic.bandwidth_Bps;
  const double hop_us = kHopLatencyUs + 0.5 * kCoreExtraLatencyUs;
  t.links_.reserve(static_cast<std::size_t>(2 * groups));
  for (int l = 0; l < groups; ++l) {
    t.links_.push_back(Link{"pg" + std::to_string(l) + ".up", core_bw, hop_us});
  }
  for (int l = 0; l < groups; ++l) {
    t.links_.push_back(Link{"pg" + std::to_string(l) + ".down", core_bw, hop_us});
  }
  return t;
}

Route Topology::route(int src, int dst) const noexcept {
  Route r;
  if (src == dst) return r;
  switch (spec_.kind) {
    case Kind::Crossbar:
      return r;
    case Kind::VSwitch:
      r.links[0] = 0;
      r.n = 1;
      return r;
    case Kind::FatTree: {
      const int ls = group_[static_cast<std::size_t>(src)];
      const int ld = group_[static_cast<std::size_t>(dst)];
      if (ls == ld) return r;  // same leaf: through the non-blocking leaf switch
      const int u = uplinks_;
      const int plane = plane_[static_cast<std::size_t>(dst)];
      r.links[0] = ls * u + plane;                // leaf(src) -> spine
      r.links[1] = groups_ * u + ld * u + plane;  // spine -> leaf(dst)
      r.n = 2;
      return r;
    }
    case Kind::PlacementGroups: {
      const int gs = group_[static_cast<std::size_t>(src)];
      const int gd = group_[static_cast<std::size_t>(dst)];
      if (gs == gd) return r;  // full bisection inside a placement group
      r.links[0] = gs;            // group(src) -> core
      r.links[1] = groups_ + gd;  // core -> group(dst)
      r.n = 2;
      return r;
    }
  }
  return r;
}

std::string Topology::describe() const {
  char buf[160];
  switch (spec_.kind) {
    case Kind::Crossbar:
      std::snprintf(buf, sizeof buf, "ideal crossbar: %d nodes, non-blocking", nodes_);
      break;
    case Kind::VSwitch:
      std::snprintf(buf, sizeof buf,
                    "shared vSwitch backplane: %d nodes over one %.2g Gb/s link", nodes_,
                    links_[0].bandwidth_Bps * 8e-9);
      break;
    case Kind::FatTree:
      std::snprintf(buf, sizeof buf,
                    "fat-tree: %d leaves x %d nodes, %d uplinks/leaf (%.3g:1 oversubscribed)",
                    groups_, per_group_, uplinks_,
                    static_cast<double>(per_group_) / uplinks_);
      break;
    case Kind::PlacementGroups:
      std::snprintf(buf, sizeof buf,
                    "placement groups: %d groups x %d nodes, %.2g Gb/s core per group",
                    groups_, per_group_, links_[0].bandwidth_Bps * 8e-9);
      break;
  }
  return buf;
}

std::vector<int> place_nodes(const Topology& topo, Placement policy, int job_nodes,
                             std::uint64_t seed) {
  if (job_nodes < 1) throw std::invalid_argument("place_nodes: need at least one node");
  if (job_nodes > topo.nodes()) {
    throw std::invalid_argument("place_nodes: job spans " + std::to_string(job_nodes) +
                                " nodes but the fabric has only " +
                                std::to_string(topo.nodes()));
  }
  std::vector<int> map(static_cast<std::size_t>(job_nodes));
  const int groups = topo.groups();
  if (policy == Placement::Scattered && groups > 1) {
    // Round-robin across leaves/groups with a seeded rotation: logical
    // neighbours land on different switches, the worst allocation a busy
    // cloud hands out. ceil(job/groups) <= per_group by construction.
    const int rot = static_cast<int>(mix64(seed ^ 0x5CA7) % static_cast<std::uint64_t>(groups));
    for (int i = 0; i < job_nodes; ++i) {
      const int leaf = (i + rot) % groups;
      const int slot = i / groups;
      map[static_cast<std::size_t>(i)] = leaf * topo.nodes_per_group() + slot;
    }
    return map;
  }
  // Contiguous and Group both pack leaves/groups in index order (the batch
  // scheduler / placement-group guarantee); Group exists as the named EC2
  // policy. On a crossbar every mapping is equivalent anyway.
  for (int i = 0; i < job_nodes; ++i) map[static_cast<std::size_t>(i)] = i;
  return map;
}

}  // namespace cirrus::topo
