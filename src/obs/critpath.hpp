// Critical-path blame attribution.
//
// Walks a finished job's trace backwards from the completion instant and
// decomposes the makespan into disjoint intervals, each blamed on one
// category: compute, mpi-wait, fabric-serialization, storage-queue,
// storage-service, barrier-lookahead, or other (tracing gaps). The walk
// follows causality: when an MPI interval completed because a message
// arrived, the path jumps through the flow arrow to the sender at its send
// time, so blame lands on whichever rank/link/queue the makespan actually
// flowed through — the IPM %comm lens sharpened from "how much time in MPI"
// to "which time mattered".
//
// Attributed interval lengths are integer nanoseconds and partition
// [earliest event begin, completion], so by_category sums to the makespan
// exactly and fractions() sums to 1.0 up to float rounding (<< 1e-9). Every
// tie-break is total (documented per rule in the .cpp), so the result is a
// pure function of the trace — byte-identical under any `--jobs` count,
// like the trace itself.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/span.hpp"
#include "sim/time.hpp"

namespace cirrus::obs::critpath {

enum class Category : int {
  Compute,
  MpiWait,
  FabricSerialization,
  StorageQueue,
  StorageService,
  BarrierLookahead,
  Other,
  kCount,
};

inline constexpr int kNumCategories = static_cast<int>(Category::kCount);

/// Human name ("fabric serialization") and metric slug ("fabric_serialization").
const char* to_string(Category c) noexcept;
const char* slug(Category c) noexcept;

/// One traversed message edge, aggregated per (src, dst) rank pair.
struct Edge {
  int src_rank = 0;
  int dst_rank = 0;
  std::uint64_t crossings = 0;  ///< times the path jumped through this pair
  std::uint64_t bytes = 0;      ///< payload bytes of those messages
  sim::SimTime flight = 0;      ///< summed send→recv time on the path
};

/// One contiguous on-path interval, in walk (reverse-time) order.
struct Segment {
  int rank = 0;
  sim::SimTime begin = 0;
  sim::SimTime end = 0;
  Category category = Category::Other;
};

struct Blame {
  sim::SimTime makespan = 0;  ///< completion - earliest event begin
  int end_rank = -1;          ///< rank whose last event defines completion
  std::array<sim::SimTime, kNumCategories> by_category{};
  std::vector<sim::SimTime> per_rank;  ///< on-path time charged to each rank
  std::vector<Edge> edges;             ///< sorted by flight desc, then (src, dst)
  std::vector<Segment> segments;       ///< the path itself, completion → start

  /// Per-category share of the makespan, in Category order. Sums to 1.0
  /// (within float rounding) whenever makespan > 0; all zeros otherwise.
  [[nodiscard]] std::array<double, kNumCategories> fractions() const noexcept;

  /// Human-readable report: fraction table, then the top-N edges.
  [[nodiscard]] std::string format(std::size_t top_edges = 8) const;
};

/// Attributes `trace`'s makespan over its rank intervals and flows. The
/// storage layer's storage.queue spans in the same set split I/O intervals
/// into queue and service time; without them, I/O is all storage service.
/// The second parameter is ignored: it stays because the perfbench harness,
/// frozen with the benchmark, still passes mpi::JobResult::spans.
[[nodiscard]] Blame attribute(const SpanSet& trace, const SpanSet* unused = nullptr);

}  // namespace cirrus::obs::critpath
