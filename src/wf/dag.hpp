// Scientific-workflow DAGs: task-graph types and the seeded generator.
//
// The shapes follow Juve et al., "Scientific Workflow Applications on
// Amazon EC2" (PAPERS.md): Montage (I/O-bound mosaic assembly with wide
// fan-out/fan-in), Epigenomics (CPU-bound sequencing pipelines), Broadband
// (mixed seismogram synthesis), plus a tiny Diamond shape for tests. A task
// carries its compute weight in reference seconds (same unit the platform
// compute model consumes), the size of the output file it writes to shared
// storage, and optionally an external input staged in from the store. Every
// dependency edge implies the consumer reads the producer's whole output
// file — from node-local scratch for free when both tasks ran on the same
// node, otherwise through the storage backend (see wf/runtime.hpp).
//
// Generation is pure and seeded: the same GenOptions always yield the same
// DAG, task by task and byte by byte, regardless of call order — sizes and
// weights jitter around their shape nominals via per-task forked RNG
// streams.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cirrus::wf {

enum class Shape { Diamond, Montage, Epigenomics, Broadband };

/// Parses "diamond" | "montage" | "epigenomics" | "broadband"
/// (case-insensitive); throws std::invalid_argument otherwise.
Shape shape_from_string(const std::string& s);
const char* to_string(Shape s) noexcept;

/// One workflow task. Tasks are stored in topological order: every
/// dependency id is smaller than the task's own id.
struct Task {
  int id = 0;
  std::string name;             ///< e.g. "mProject_3"
  int stage = 0;                ///< pipeline stage (for display/grouping)
  double ref_seconds = 0;       ///< compute weight on the reference core
  std::size_t out_bytes = 0;    ///< output file written to shared storage
  std::size_t ext_in_bytes = 0; ///< external input staged from the store
  std::vector<int> deps;        ///< producer task ids (all < id)
};

/// A generated workflow. `succs` mirrors the dependency edges forward;
/// edge bytes are the producer's out_bytes (the consumer reads the file).
struct Dag {
  std::string name;  ///< e.g. "montage-16"
  Shape shape = Shape::Diamond;
  std::vector<Task> tasks;
  std::vector<std::vector<int>> succs;

  [[nodiscard]] int n_tasks() const noexcept { return static_cast<int>(tasks.size()); }
  /// Total compute weight (reference seconds) across all tasks.
  [[nodiscard]] double total_ref_seconds() const;
  /// Total bytes moved if nothing hits scratch: external inputs plus every
  /// dependency edge plus every output write.
  [[nodiscard]] std::size_t total_bytes() const;
};

struct GenOptions {
  Shape shape = Shape::Montage;
  /// Parallel width (branches per fan-out stage). 0: the shape's default
  /// (Montage 16, Epigenomics 8, Broadband 8, Diamond 8).
  int width = 0;
  std::uint64_t seed = 1;
};

/// Builds the DAG for `opts`. Deterministic per options; throws
/// std::invalid_argument on a negative width.
Dag generate(const GenOptions& opts);

/// One-line structural summary ("montage-16: 50 tasks / 7 stages / ...")
/// and a full deterministic dump (one line per task) used by tests to
/// assert byte-stability of the generator.
std::string describe(const Dag& dag);
std::string dump(const Dag& dag);

}  // namespace cirrus::wf
