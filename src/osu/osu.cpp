#include "osu/osu.hpp"

#include <string>

#include "mpi/minimpi.hpp"
#include "sim/rng.hpp"

namespace cirrus::osu {

std::vector<std::size_t> default_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t s = 1; s <= (4u << 20); s *= 2) sizes.push_back(s);
  return sizes;
}

namespace {

mpi::JobConfig two_node_config(const plat::Platform& platform, std::uint64_t seed,
                               const std::string& name) {
  mpi::JobConfig cfg;
  cfg.platform = platform;
  cfg.np = 2;
  cfg.max_ranks_per_node = 1;  // one rank per node: the inter-node path
  cfg.seed = seed;
  cfg.execute = false;
  cfg.name = name;
  return cfg;
}

}  // namespace

std::vector<BandwidthPoint> bandwidth(const plat::Platform& platform,
                                      const std::vector<std::size_t>& sizes, std::uint64_t seed,
                                      int window, int iterations, int skip) {
  std::vector<BandwidthPoint> out;
  out.reserve(sizes.size());
  for (const std::size_t bytes : sizes) {
    // Every size is a separate run at a different time: decorrelate the
    // jitter stream per size.
    auto cfg = two_node_config(platform, sim::Rng(seed).fork(bytes).u64(), "osu_bw");
    auto result = mpi::run_job(cfg, [bytes, window, iterations, skip](mpi::RankEnv& env) {
      auto& c = env.world();
      std::vector<mpi::Request> reqs(static_cast<std::size_t>(window));
      double t_start = 0;
      for (int it = 0; it < iterations; ++it) {
        if (it == skip && c.rank() == 0) t_start = env.now_seconds();
        if (c.rank() == 0) {
          for (int w = 0; w < window; ++w) {
            reqs[static_cast<std::size_t>(w)] = c.isend_bytes(1, w, nullptr, bytes);
          }
          c.waitall(reqs);
          int ack = 0;
          c.recv(1, 1 << 20, &ack, 1);
        } else {
          for (int w = 0; w < window; ++w) {
            reqs[static_cast<std::size_t>(w)] = c.irecv_bytes(0, w, nullptr, bytes);
          }
          c.waitall(reqs);
          int ack = 1;
          c.send(0, 1 << 20, &ack, 1);
        }
      }
      if (c.rank() == 0) {
        const double elapsed = env.now_seconds() - t_start;
        const double total_bytes =
            static_cast<double>(bytes) * window * (iterations - skip);
        env.report("mbps", total_bytes / elapsed / 1e6);
      }
    });
    out.push_back(BandwidthPoint{bytes, result.values.at("mbps"), result.events_processed});
  }
  return out;
}

std::vector<LatencyPoint> latency(const plat::Platform& platform,
                                  const std::vector<std::size_t>& sizes, std::uint64_t seed,
                                  int iterations, int skip) {
  std::vector<LatencyPoint> out;
  out.reserve(sizes.size());
  for (const std::size_t bytes : sizes) {
    auto cfg = two_node_config(platform, sim::Rng(seed).fork(bytes).u64(), "osu_latency");
    auto result = mpi::run_job(cfg, [bytes, iterations, skip](mpi::RankEnv& env) {
      auto& c = env.world();
      double t_start = 0;
      for (int it = 0; it < iterations; ++it) {
        if (it == skip && c.rank() == 0) t_start = env.now_seconds();
        if (c.rank() == 0) {
          c.send_bytes(1, it, nullptr, bytes);
          c.recv_bytes(1, it, nullptr, bytes);
        } else {
          c.recv_bytes(0, it, nullptr, bytes);
          c.send_bytes(0, it, nullptr, bytes);
        }
      }
      if (c.rank() == 0) {
        const double elapsed = env.now_seconds() - t_start;
        env.report("usec", elapsed / (2.0 * (iterations - skip)) * 1e6);
      }
    });
    out.push_back(LatencyPoint{bytes, result.values.at("usec"), result.events_processed});
  }
  return out;
}

}  // namespace cirrus::osu
