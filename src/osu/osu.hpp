// OSU-style MPI micro-benchmarks (paper §V-A, Figures 1 and 2).
//
// * bandwidth: a window of non-blocking sends per message size, acknowledged
//   by the receiver, reporting sustained MB/s — the osu_bw pattern.
// * latency: blocking ping-pong, reporting the average one-way time in
//   microseconds — the osu_latency pattern.
//
// Both run as a 2-rank job placed on two distinct nodes of the target
// platform (exactly how the paper measures "between two compute nodes").
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "platform/platform.hpp"

namespace cirrus::osu {

struct BandwidthPoint {
  std::size_t bytes = 0;
  double mb_per_s = 0;
  std::uint64_t events = 0;  ///< simulator events of this size's run
};

struct LatencyPoint {
  std::size_t bytes = 0;
  double usec = 0;
  std::uint64_t events = 0;  ///< simulator events of this size's run
};

/// The message-size sweep used in the paper's plots: powers of two from 1 B
/// to 4 MB.
std::vector<std::size_t> default_sizes();

/// osu_bw between two nodes of `platform`. `window` non-blocking sends per
/// iteration, `iterations` repetitions per size (first `skip` discarded).
std::vector<BandwidthPoint> bandwidth(const plat::Platform& platform,
                                      const std::vector<std::size_t>& sizes,
                                      std::uint64_t seed = 1, int window = 64,
                                      int iterations = 20, int skip = 2);

/// osu_latency between two nodes of `platform`.
std::vector<LatencyPoint> latency(const plat::Platform& platform,
                                  const std::vector<std::size_t>& sizes, std::uint64_t seed = 1,
                                  int iterations = 100, int skip = 10);

}  // namespace cirrus::osu
