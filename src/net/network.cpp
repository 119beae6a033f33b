#include "net/network.hpp"

#include <algorithm>
#include <cassert>

namespace cirrus::net {

Network::Network(sim::Engine& engine, const plat::Platform& platform, int nodes,
                 std::uint64_t seed)
    : engine_(engine),
      platform_(platform),
      overhead_ns_(sim::from_micros(platform.nic.per_msg_overhead_us)),
      nic_lat_ns_(sim::from_micros(platform.nic.latency_us)),
      shm_lat_ns_(sim::from_micros(platform.shm.latency_us)),
      tx_free_(static_cast<std::size_t>(std::max(1, nodes)), 0),
      rx_free_(static_cast<std::size_t>(std::max(1, nodes)), 0),
      rx_last_src_(static_cast<std::size_t>(std::max(1, nodes)), -1),
      nic_stats_(static_cast<std::size_t>(std::max(1, nodes))),
      rng_(sim::Rng(seed).fork(0x4E7)) {}

void Network::set_topology(std::shared_ptr<const topo::Topology> topo,
                           std::vector<int> node_map) {
  topo_ = std::move(topo);
  node_map_ = std::move(node_map);
  const std::size_t n = topo_ != nullptr ? topo_->links().size() : 0;
  link_free_.assign(n, 0);
  link_stats_.assign(n, LinkStats{});
}

sim::SimTime Network::wire_latency(bool internode) {
  if (!internode) return shm_lat_ns_;
  if (platform_.nic.jitter_prob > 0.0 && rng_.chance(platform_.nic.jitter_prob)) {
    ++stats_.jitter_spikes;
    // Sum before rounding: rounding the latency and the spike apart could
    // move the arrival by a nanosecond.
    return sim::from_micros(platform_.nic.latency_us +
                            rng_.exponential(platform_.nic.jitter_mean_us));
  }
  return nic_lat_ns_;
}

TransferTiming Network::transfer(int src_node, int dst_node, std::size_t bytes) {
  const sim::SimTime now = engine_.now();
  const sim::SimTime overhead = overhead_ns_;

  if (src_node == dst_node) {
    ++stats_.transfers_intranode;
    stats_.bytes_intranode += bytes;
    // Shared-memory transport: a copy at shm bandwidth after a small latency.
    const sim::SimTime copy =
        sim::from_seconds(static_cast<double>(bytes) / platform_.shm.bandwidth_Bps);
    const sim::SimTime lat = shm_lat_ns_;
    // The sender performs the copy (one-copy shared-memory protocol).
    return TransferTiming{.sender_free = now + copy, .arrival = now + copy + lat};
  }

  ++stats_.transfers_internode;
  stats_.bytes_internode += bytes;

  assert(src_node >= 0 && static_cast<std::size_t>(src_node) < tx_free_.size());
  assert(dst_node >= 0 && static_cast<std::size_t>(dst_node) < rx_free_.size());

  sim::SimTime busy =
      sim::from_seconds(static_cast<double>(bytes) / platform_.nic.bandwidth_Bps);

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
  const sim::SimTime lat = wire_latency(/*internode=*/true);

  // Fabric: walk the static route and reserve every link as a FIFO serial
  // resource. The head advances by each hop's (queueing + latency); the tail
  // cannot clear the fabric before the slowest link finishes serialising, so
  // a slow backplane bounds even a lone message's bandwidth. Empty routes
  // (crossbar, same leaf/group) skip this loop entirely — bit-identical to
  // the NIC-only model; a link-less fabric is not even asked for its route.
  sim::SimTime head = tx_start + lat;
  sim::SimTime fabric_tail = 0;
  if (has_fabric_links()) {
    const topo::Route route = topo_->route(fabric_node(src_node), fabric_node(dst_node));
    for (int h = 0; h < route.n; ++h) {
      const int li = route.links[static_cast<std::size_t>(h)];
      const topo::Link& link = topo_->links()[static_cast<std::size_t>(li)];
      const sim::SimTime link_busy =
          sim::from_seconds(static_cast<double>(bytes) / link.bandwidth_Bps);
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
      head = start + sim::from_micros(link.latency_us);
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
    if (has_fabric_links()) {
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
