#include "net/network.hpp"

#include <algorithm>
#include <cassert>

namespace cirrus::net {

Network::Network(sim::Engine& engine, const plat::Platform& platform, int nodes,
                 std::uint64_t seed)
    : engine_(engine),
      platform_(platform),
      tx_free_(static_cast<std::size_t>(std::max(1, nodes)), 0),
      rx_free_(static_cast<std::size_t>(std::max(1, nodes)), 0),
      rx_last_src_(static_cast<std::size_t>(std::max(1, nodes)), -1),
      nic_stats_(static_cast<std::size_t>(std::max(1, nodes))),
      rng_(sim::Rng(seed).fork(0x4E7)) {}

void Network::set_fault_hooks(NodeFactorFn bw_factor, NodeFactorFn extra_latency_us) {
  bw_factor_ = std::move(bw_factor);
  extra_latency_us_ = std::move(extra_latency_us);
}

void Network::set_link_fault_hooks(LinkFactorFn bw_factor, LinkFactorFn extra_latency_us) {
  link_bw_factor_ = std::move(bw_factor);
  link_extra_latency_us_ = std::move(extra_latency_us);
}

void Network::set_topology(std::shared_ptr<const topo::Topology> topo,
                           std::vector<int> node_map) {
  topo_ = std::move(topo);
  node_map_ = std::move(node_map);
  const std::size_t n = topo_ != nullptr ? topo_->links().size() : 0;
  link_free_.assign(n, 0);
  link_stats_.assign(n, LinkStats{});
}

double Network::degraded_bandwidth_Bps(int src_node, int dst_node, double t_s) const {
  double bw = platform_.nic.bandwidth_Bps;
  if (bw_factor_) {
    // A flow is limited by the worse of its two endpoints' NICs.
    const double f = std::min(bw_factor_(src_node, t_s), bw_factor_(dst_node, t_s));
    if (f > 0.0 && f < 1.0) bw *= f;
  }
  return bw;
}

sim::SimTime Network::extra_latency(int src_node, int dst_node, double t_s) const {
  if (!extra_latency_us_) return 0;
  return sim::from_micros(extra_latency_us_(src_node, t_s) + extra_latency_us_(dst_node, t_s));
}

sim::SimTime Network::wire_latency(bool internode) {
  if (!internode) return sim::from_micros(platform_.shm.latency_us);
  double us = platform_.nic.latency_us;
  if (platform_.nic.jitter_prob > 0.0 && rng_.chance(platform_.nic.jitter_prob)) {
    us += rng_.exponential(platform_.nic.jitter_mean_us);
    ++stats_.jitter_spikes;
  }
  return sim::from_micros(us);
}

TransferTiming Network::transfer(int src_node, int dst_node, std::size_t bytes) {
  const sim::SimTime now = engine_.now();
  const sim::SimTime overhead = sim::from_micros(platform_.nic.per_msg_overhead_us);

  if (src_node == dst_node) {
    ++stats_.transfers_intranode;
    stats_.bytes_intranode += bytes;
    // Shared-memory transport: a copy at shm bandwidth after a small latency.
    const sim::SimTime copy =
        sim::from_seconds(static_cast<double>(bytes) / platform_.shm.bandwidth_Bps);
    const sim::SimTime lat = sim::from_micros(platform_.shm.latency_us);
    // The sender performs the copy (one-copy shared-memory protocol).
    return TransferTiming{.sender_free = now + copy, .arrival = now + copy + lat};
  }

  ++stats_.transfers_internode;
  stats_.bytes_internode += bytes;

  assert(src_node >= 0 && static_cast<std::size_t>(src_node) < tx_free_.size());
  assert(dst_node >= 0 && static_cast<std::size_t>(dst_node) < rx_free_.size());

  sim::SimTime busy = sim::from_seconds(
      static_cast<double>(bytes) /
      degraded_bandwidth_Bps(src_node, dst_node, sim::to_seconds(now)));

  // On half-duplex platforms (software-switched vNICs) one packet-processing
  // resource serves both directions, so RX traffic queues behind TX traffic
  // on the same node and vice versa.
  const bool hd = platform_.nic.half_duplex;
  auto& src_tx = tx_free_[static_cast<std::size_t>(src_node)];
  auto& src_rx = rx_free_[static_cast<std::size_t>(src_node)];
  auto& dst_tx = tx_free_[static_cast<std::size_t>(dst_node)];
  auto& dst_rx = rx_free_[static_cast<std::size_t>(dst_node)];

  // TX port: FIFO serialisation of outgoing transfers from this node.
  const sim::SimTime tx_start =
      std::max(now + overhead, hd ? std::max(src_tx, src_rx) : src_tx);
  const sim::SimTime tx_end = tx_start + busy;
  src_tx = tx_end;
  if (hd) src_rx = tx_end;
  {
    NicStats& nic = nic_stats_[static_cast<std::size_t>(src_node)];
    ++nic.tx_transfers;
    nic.tx_bytes += bytes;
    nic.tx_busy += busy;
    nic.tx_queued += tx_start - (now + overhead);
  }

  // Wire: base latency + jitter; cut-through, so the head of the message
  // reaches the RX port one latency after TX starts.
  const sim::SimTime lat = wire_latency(/*internode=*/true) +
                           extra_latency(src_node, dst_node, sim::to_seconds(now));

  // Fabric: walk the static route and reserve every link as a FIFO serial
  // resource. The head advances by each hop's (queueing + latency); the tail
  // cannot clear the fabric before the slowest link finishes serialising, so
  // a slow backplane bounds even a lone message's bandwidth. Empty routes
  // (crossbar, same leaf/group) skip this loop entirely — bit-identical to
  // the NIC-only model.
  sim::SimTime head = tx_start + lat;
  sim::SimTime fabric_tail = 0;
  if (topo_ != nullptr) {
    const topo::Route route = topo_->route(fabric_node(src_node), fabric_node(dst_node));
    const double t_s = sim::to_seconds(now);
    for (int h = 0; h < route.n; ++h) {
      const int li = route.links[static_cast<std::size_t>(h)];
      const topo::Link& link = topo_->links()[static_cast<std::size_t>(li)];
      double link_bw = link.bandwidth_Bps;
      if (link_bw_factor_) {
        const double f = link_bw_factor_(li, t_s);
        if (f > 0.0 && f < 1.0) link_bw *= f;
      }
      const sim::SimTime link_busy = sim::from_seconds(static_cast<double>(bytes) / link_bw);
      auto& free_at = link_free_[static_cast<std::size_t>(li)];
      const sim::SimTime start = std::max(head, free_at);
      ++stats_.routed_hops;
      auto& stats = link_stats_[static_cast<std::size_t>(li)];
      ++stats.transfers;
      stats.bytes += bytes;
      stats.busy += link_busy;
      stats.queued += start - head;
      free_at = start + link_busy;
      fabric_tail = std::max(fabric_tail, start + link_busy);
      double hop_us = link.latency_us;
      if (link_extra_latency_us_) hop_us += link_extra_latency_us_(li, t_s);
      head = start + sim::from_micros(hop_us);
    }
  }

  // RX port: the message occupies the receive port for `busy`; concurrent
  // senders to the same node queue here. When the port is still busy with a
  // transfer from a *different* node, the interleaving of flows degrades
  // service (incast / fabric congestion under all-to-all traffic).
  auto& last_src = rx_last_src_[static_cast<std::size_t>(dst_node)];
  if (platform_.nic.incast_penalty > 1.0 && head < dst_rx && last_src != src_node &&
      last_src >= 0) {
    busy = static_cast<sim::SimTime>(static_cast<double>(busy) * platform_.nic.incast_penalty);
    ++stats_.incast_collisions;
  }
  last_src = src_node;
  const sim::SimTime rx_start = std::max(head, hd ? std::max(dst_tx, dst_rx) : dst_rx);
  // The payload is fully received no earlier than both the RX port's own
  // serialisation and the fabric bottleneck's tail.
  const sim::SimTime rx_end = std::max(rx_start + busy, fabric_tail);
  dst_rx = rx_end;
  if (hd) dst_tx = rx_end;
  {
    NicStats& nic = nic_stats_[static_cast<std::size_t>(dst_node)];
    ++nic.rx_transfers;
    nic.rx_bytes += bytes;
    nic.rx_busy += rx_end - rx_start;
  }

  return TransferTiming{.sender_free = tx_end, .arrival = rx_end};
}

sim::SimTime Network::control_delay(int src_node, int dst_node) {
  ++stats_.control_messages;
  sim::SimTime d = wire_latency(src_node != dst_node);
  if (src_node != dst_node) {
    d += extra_latency(src_node, dst_node, sim::to_seconds(engine_.now()));
    if (topo_ != nullptr) {
      // Control messages ride the same static route but reserve nothing:
      // they only pay each hop's base latency.
      const topo::Route route = topo_->route(fabric_node(src_node), fabric_node(dst_node));
      for (int h = 0; h < route.n; ++h) {
        d += sim::from_micros(
            topo_->links()[static_cast<std::size_t>(route.links[static_cast<std::size_t>(h)])]
                .latency_us);
      }
    }
  }
  return d;
}

FileSystem::FileSystem(sim::Engine& engine, const plat::FsModel& model)
    : engine_(engine), model_(model) {}

sim::SimTime FileSystem::request(std::size_t bytes, double bw_Bps, bool open_file) {
  sim::SimTime service = sim::from_seconds(static_cast<double>(bytes) / bw_Bps);
  if (open_file) service += sim::from_seconds(model_.open_latency_ms * 1e-3);
  const sim::SimTime start = std::max(engine_.now(), server_free_);
  server_free_ = start + service;
  return server_free_;
}

sim::SimTime FileSystem::read(std::size_t bytes, bool open_file) {
  return request(bytes, model_.read_Bps, open_file);
}

sim::SimTime FileSystem::write(std::size_t bytes, bool open_file) {
  return request(bytes, model_.write_Bps, open_file);
}

}  // namespace cirrus::net
