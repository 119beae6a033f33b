// Unit tests for the switch-fabric topology subsystem: builders, static
// routing, placement policies, the Network fabric stage, and end-to-end
// equivalences (ideal crossbar == legacy NIC-only model; vSwitch backplane
// queueing == legacy per-NIC RX queueing, one switch hop later).
#include "topo/topo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "net/network.hpp"
#include "npb/npb.hpp"

namespace topo = cirrus::topo;
namespace net = cirrus::net;
namespace plat = cirrus::plat;
namespace sim = cirrus::sim;
namespace mpi = cirrus::mpi;
namespace npb = cirrus::npb;

namespace {

plat::Platform quiet(plat::Platform p) {
  p.nic.jitter_prob = 0.0;  // deterministic costs for exact assertions
  return p;
}

topo::TopoSpec fattree(int radix, double oversub) {
  topo::TopoSpec s;
  s.kind = topo::Kind::FatTree;
  s.leaf_radix = radix;
  s.oversubscription = oversub;
  return s;
}

}  // namespace

TEST(Topology, CrossbarHasNoLinksAndEmptyRoutes) {
  const auto t = topo::Topology::build(topo::TopoSpec{}, plat::vayu().nic, 8);
  EXPECT_TRUE(t.links().empty());
  for (int s = 0; s < 8; ++s) {
    for (int d = 0; d < 8; ++d) EXPECT_EQ(t.route(s, d).n, 0);
  }
}

TEST(Topology, RoutesAreDeterministicAcrossBuilds) {
  const auto spec = fattree(4, 2.0);
  const auto a = topo::Topology::build(spec, plat::vayu().nic, 16);
  const auto b = topo::Topology::build(spec, plat::vayu().nic, 16);
  ASSERT_EQ(a.nodes(), b.nodes());
  for (int s = 0; s < a.nodes(); ++s) {
    for (int d = 0; d < a.nodes(); ++d) {
      const auto ra = a.route(s, d);
      const auto rb = b.route(s, d);
      ASSERT_EQ(ra.n, rb.n) << s << "->" << d;
      for (int h = 0; h < ra.n; ++h) EXPECT_EQ(ra.links[h], rb.links[h]) << s << "->" << d;
    }
  }
}

TEST(Topology, FatTreeRoutesStayInsideLeafWhenPossible) {
  const auto t = topo::Topology::build(fattree(4, 2.0), plat::vayu().nic, 8);
  ASSERT_EQ(t.groups(), 2);
  ASSERT_EQ(t.uplinks_per_leaf(), 2);
  EXPECT_EQ(t.route(0, 3).n, 0);  // same leaf: non-blocking leaf switch
  const auto r = t.route(0, 5);   // cross-leaf: up + down hop
  ASSERT_EQ(r.n, 2);
  for (int h = 0; h < r.n; ++h) {
    ASSERT_GE(r.links[h], 0);
    ASSERT_LT(r.links[h], static_cast<int>(t.links().size()));
  }
}

TEST(Topology, FatTreeStaticRoutingIsDestinationHashed) {
  // A statically routed fat-tree resolves the spine plane by destination:
  // flows from *different* leaves towards one node use the same plane index,
  // so incast converges on a single downlink.
  const auto t = topo::Topology::build(fattree(4, 1.0), plat::vayu().nic, 12);
  ASSERT_EQ(t.groups(), 3);
  const int dst = 0;
  const auto from_leaf1 = t.route(4, dst);
  const auto from_leaf2 = t.route(8, dst);
  ASSERT_EQ(from_leaf1.n, 2);
  ASSERT_EQ(from_leaf2.n, 2);
  EXPECT_EQ(from_leaf1.links[1], from_leaf2.links[1]);  // shared downlink
  EXPECT_NE(from_leaf1.links[0], from_leaf2.links[0]);  // distinct uplinks
}

namespace {
/// splitmix64, restated: the fat-tree's destination hash.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}
}  // namespace

TEST(Topology, TabledRoutesMatchTheClosedForm) {
  // Every (src, dst) route of fat-trees and placement groups over several
  // radixes and oversubscriptions, against the closed form: leaf =
  // node / radix, plane = splitmix64(dst) % uplinks.
  int cross_leaf = 0;
  for (const int radix : {1, 3, 4, 8}) {
    for (const double os : {1.0, 1.5, 2.0, 4.0}) {
      topo::TopoSpec spec = fattree(radix, os);
      for (const topo::Kind kind : {topo::Kind::FatTree, topo::Kind::PlacementGroups}) {
        spec.kind = kind;
        const auto t = topo::Topology::build(spec, plat::vayu().nic, 13);
        const int u = std::clamp(static_cast<int>(std::lround(radix / os)), 1, radix);
        const int groups = t.nodes() / radix;
        ASSERT_EQ(t.nodes(), (13 + radix - 1) / radix * radix);
        for (int s = 0; s < t.nodes(); ++s) {
          ASSERT_EQ(t.group_of(s), s / radix);
          for (int d = 0; d < t.nodes(); ++d) {
            const auto r = t.route(s, d);
            const int ls = s / radix;
            const int ld = d / radix;
            if (s == d || ls == ld) {
              ASSERT_EQ(r.n, 0) << s << "->" << d;
              continue;
            }
            ++cross_leaf;
            ASSERT_EQ(r.n, 2) << s << "->" << d;
            if (kind == topo::Kind::PlacementGroups) {
              EXPECT_EQ(r.links[0], ls);
              EXPECT_EQ(r.links[1], groups + ld);
              continue;
            }
            const int plane = static_cast<int>(splitmix64(static_cast<std::uint64_t>(d)) %
                                               static_cast<std::uint64_t>(u));
            EXPECT_EQ(r.links[0], ls * u + plane) << s << "->" << d;
            EXPECT_EQ(r.links[1], groups * u + ld * u + plane) << s << "->" << d;
          }
        }
      }
    }
  }
  EXPECT_GT(cross_leaf, 0);
}

TEST(Topology, ScatteredPlacementIsDeterministicPermutation) {
  const auto t = topo::Topology::build(fattree(4, 1.0), plat::vayu().nic, 8);
  const auto a = topo::place_nodes(t, topo::Placement::Scattered, 8, 7);
  const auto b = topo::place_nodes(t, topo::Placement::Scattered, 8, 7);
  EXPECT_EQ(a, b);  // same seed, same map

  auto sorted = a;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 8; ++i) EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);  // bijection

  // Logical neighbours land on different leaves — the point of scattering.
  EXPECT_NE(t.group_of(a[0]), t.group_of(a[1]));
}

TEST(Topology, ContiguousPlacementIsIdentity) {
  const auto t = topo::Topology::build(fattree(4, 1.0), plat::vayu().nic, 8);
  const auto m = topo::place_nodes(t, topo::Placement::Contiguous, 8, 7);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(m[static_cast<std::size_t>(i)], i);
}

TEST(NetworkFabric, CrossbarIsBitIdenticalToLegacyNicOnlyModel) {
  const auto p = quiet(plat::ec2());
  sim::Engine e1, e2;
  net::Network legacy(e1, p, 4, 9);
  net::Network fabric(e2, p, 4, 9);
  auto t = std::make_shared<topo::Topology>(
      topo::Topology::build(topo::TopoSpec{}, p.nic, 4));
  fabric.set_topology(t, topo::place_nodes(*t, topo::Placement::Scattered, 4, 9));

  const int pairs[][2] = {{0, 1}, {2, 3}, {1, 0}, {0, 2}, {3, 0}, {0, 1}};
  for (const auto& pr : pairs) {
    for (const std::size_t bytes : {0UL, 1024UL, 1UL << 20}) {
      const auto a = legacy.transfer(pr[0], pr[1], bytes);
      const auto b = fabric.transfer(pr[0], pr[1], bytes);
      EXPECT_EQ(a.arrival, b.arrival);
      EXPECT_EQ(a.sender_free, b.sender_free);
    }
  }
  EXPECT_TRUE(fabric.link_stats().empty());  // nothing to meter
}

TEST(NetworkFabric, VSwitchBackplaneMatchesLegacyRxQueueingOnIncast) {
  // The backplane runs at NIC speed, so its per-link FIFO queueing must
  // reproduce the legacy per-NIC RX-port serialisation: N->1 arrivals spaced
  // one serialisation time apart, each one switch hop (0.5 us) behind the
  // NIC-only model.
  auto p = quiet(plat::ec2());
  p.nic.incast_penalty = 1.0;  // isolate FIFO queueing in both models
  sim::Engine e1, e2;
  net::Network legacy(e1, p, 5, 1);
  net::Network fabric(e2, p, 5, 1);
  topo::TopoSpec spec;
  spec.kind = topo::Kind::VSwitch;
  auto t = std::make_shared<topo::Topology>(topo::Topology::build(spec, p.nic, 5));
  ASSERT_EQ(t->links().size(), 1U);
  EXPECT_EQ(t->links()[0].bandwidth_Bps, p.nic.bandwidth_Bps);
  EXPECT_EQ(t->links()[0].latency_us, 0.5);
  fabric.set_topology(t, {});

  const std::size_t bytes = 1 << 20;
  const sim::SimTime hop = sim::from_micros(0.5);
  const sim::SimTime busy =
      sim::from_seconds(static_cast<double>(bytes) / p.nic.bandwidth_Bps);
  sim::SimTime prev = 0;
  for (int src = 0; src < 4; ++src) {  // 4-way incast into node 4
    const auto a = legacy.transfer(src, 4, bytes);
    const auto b = fabric.transfer(src, 4, bytes);
    EXPECT_EQ(b.arrival, a.arrival + hop) << "src " << src;
    if (src > 0) {
      EXPECT_EQ(b.arrival - prev, busy) << "src " << src;
    }
    prev = b.arrival;
  }
  const auto& s = fabric.link_stats().at(0);
  EXPECT_EQ(s.transfers, 4U);
  EXPECT_EQ(s.bytes, 4 * bytes);
}

TEST(NetworkFabric, OversubscribedUplinkQueuesCrossLeafFlows) {
  // Two leaves of two nodes, one uplink per leaf (2:1). Two simultaneous
  // cross-leaf flows from leaf0 share leaf0's only uplink: the second is
  // delayed a full serialisation time even though its NIC ports are idle.
  const auto p = quiet(plat::vayu());
  sim::Engine eng;
  net::Network n(eng, p, 4, 1);
  auto t = std::make_shared<topo::Topology>(
      topo::Topology::build(fattree(2, 2.0), p.nic, 4));
  ASSERT_EQ(t->uplinks_per_leaf(), 1);
  n.set_topology(t, {});

  const std::size_t bytes = 1 << 20;
  const double busy = static_cast<double>(bytes) / p.nic.bandwidth_Bps;
  const auto a = n.transfer(0, 2, bytes);
  const auto b = n.transfer(1, 3, bytes);  // distinct NICs, shared uplink
  EXPECT_NEAR(sim::to_seconds(b.arrival) - sim::to_seconds(a.arrival), busy, 1e-6);

  const auto& up = n.link_stats().at(0);  // leaf0.up0
  EXPECT_EQ(up.transfers, 2U);
  EXPECT_GT(up.queued, 0);
}

TEST(TopoJob, ExplicitCrossbarMatchesDeterminismGoldens) {
  // The same constants as determinism_golden_test: an explicitly requested
  // crossbar with a scattered placement must be byte-identical to the
  // default configuration (placement is meaningless on a crossbar).
  const auto& cg = npb::benchmark("CG");
  auto cfg = npb::make_job(cg, npb::Class::T, plat::by_name("dcc"), 4, /*execute=*/true, 1);
  cfg.topology.kind = topo::Kind::Crossbar;
  cfg.placement = topo::Placement::Scattered;
  const auto r =
      mpi::run_job(cfg, [&cg](mpi::RankEnv& env) { cg.fn(env, npb::Class::T); });
  EXPECT_EQ(r.elapsed_seconds, 0.023827264000000001);
  EXPECT_EQ(r.events_processed, 15479U);
}

TEST(TopoJob, FatTreeCongestionHurtsAlltoallMoreThanStencil) {
  // 16 ranks over 4 nodes, two leaves, one uplink each (2:1). FT's
  // all-to-all crosses the leaves every exchange; LU's pencil neighbours
  // mostly stay inside a leaf.
  const auto run = [](const char* bench, topo::Kind kind) {
    const auto& info = npb::benchmark(bench);
    auto cfg = npb::make_job(info, npb::Class::A, plat::vayu(), 16, /*execute=*/false, 1);
    cfg.max_ranks_per_node = 4;
    cfg.topology = topo::TopoSpec{};
    cfg.topology.kind = kind;
    cfg.topology.leaf_radix = 2;
    cfg.topology.oversubscription = 2.0;
    return mpi::run_job(cfg, [&info](mpi::RankEnv& env) { info.fn(env, npb::Class::A); })
        .elapsed_seconds;
  };
  const double ft_slow = run("FT", topo::Kind::FatTree) / run("FT", topo::Kind::Crossbar);
  const double lu_slow = run("LU", topo::Kind::FatTree) / run("LU", topo::Kind::Crossbar);
  EXPECT_GT(ft_slow, 1.0);
  EXPECT_GT(ft_slow, lu_slow);
}

TEST(TopoJob, ResultExportsTopologyAndLinkStats) {
  const auto& ft = npb::benchmark("FT");
  auto cfg = npb::make_job(ft, npb::Class::W, plat::vayu(), 8, /*execute=*/false, 1);
  cfg.max_ranks_per_node = 2;  // 4 nodes
  cfg.topology = fattree(2, 1.0);
  const auto r = mpi::run_job(cfg, [&ft](mpi::RankEnv& env) { ft.fn(env, npb::Class::W); });
  ASSERT_NE(r.topology, nullptr);
  ASSERT_EQ(r.link_stats.size(), r.topology->links().size());
  std::uint64_t transfers = 0;
  for (const auto& s : r.link_stats) transfers += s.transfers;
  EXPECT_GT(transfers, 0U);  // cross-leaf traffic was metered

  cfg.topology = topo::TopoSpec{};  // crossbar: fabric exists, nothing metered
  const auto r2 = mpi::run_job(cfg, [&ft](mpi::RankEnv& env) { ft.fn(env, npb::Class::W); });
  ASSERT_NE(r2.topology, nullptr);
  EXPECT_TRUE(r2.link_stats.empty());
}
