// IPM-style performance monitoring for simulated MPI jobs.
//
// Mirrors the measurement semantics of the Integrated Performance Monitoring
// framework used in the paper: per-rank wall time is decomposed into
// computation, MPI (communication, split user/system) and I/O; MPI time is
// attributed to the innermost active application *section* (region) and
// bucketed per call type and log2 message size. From these the report
// derives the paper's metrics: %comm (Table II/III), load imbalance %, the
// per-rank breakdown of Fig 7, and the message-size histogram consumed by
// the ARRIVE-F cross-platform predictor.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace cirrus::ipm {

/// MPI call types tracked by the monitor.
enum class CallKind : int {
  Send,
  Recv,
  Isend,
  Irecv,
  Wait,
  Sendrecv,
  Barrier,
  Bcast,
  Allreduce,
  Scatter,
  Allgather,
  Alltoall,
  Alltoallv,
  Split,
  kCount,
};

const char* to_string(CallKind k) noexcept;

inline constexpr int kNumCallKinds = static_cast<int>(CallKind::kCount);
/// log2 message-size buckets: bucket i holds sizes in [2^i, 2^(i+1)).
inline constexpr int kNumSizeBuckets = 33;

int size_bucket(std::size_t bytes) noexcept;

/// Totals for one (call kind x size bucket) cell.
struct CallStats {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
  sim::SimTime time = 0;
};

/// Time totals attributed to one application section on one rank.
struct SectionStats {
  sim::SimTime comp = 0;
  sim::SimTime comm_user = 0;
  sim::SimTime comm_sys = 0;
  sim::SimTime io = 0;
  std::uint64_t mpi_calls = 0;

  [[nodiscard]] sim::SimTime comm() const noexcept { return comm_user + comm_sys; }
};

/// Collects one rank's profile. The MPI layer and RankEnv call the add_*
/// hooks; applications delimit sections with Region (RAII).
class RankRecorder {
 public:
  explicit RankRecorder(int rank) : rank_(rank) {}

  /// Enters/leaves a named section. Attribution goes to the innermost
  /// section; time outside any region lands in "(root)".
  int push_section(const std::string& name);
  void pop_section();

  void add_compute(sim::SimTime dur);
  void add_io(sim::SimTime dur);
  void add_mpi(CallKind kind, std::size_t bytes, sim::SimTime dur, double sys_frac);

  /// Marks the end of the rank's execution.
  void finish(sim::SimTime wall) { wall_ = wall; }

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] sim::SimTime wall() const noexcept { return wall_; }
  [[nodiscard]] const SectionStats& totals() const noexcept { return totals_; }
  [[nodiscard]] const std::vector<std::string>& section_names() const noexcept {
    return section_names_;
  }
  /// Stats for a named section; zeros if the rank never entered it.
  [[nodiscard]] SectionStats section(const std::string& name) const;
  [[nodiscard]] const std::array<CallStats, kNumCallKinds>& by_call() const noexcept {
    return by_call_;
  }
  /// Histogram cell for (kind, log2-size bucket).
  [[nodiscard]] const CallStats& histogram(CallKind kind, int bucket) const noexcept {
    return hist_[static_cast<std::size_t>(kind)][static_cast<std::size_t>(bucket)];
  }

 private:
  SectionStats& current();

  int rank_;
  sim::SimTime wall_ = 0;
  SectionStats totals_;
  std::vector<std::string> section_names_;
  std::vector<SectionStats> sections_;
  std::vector<int> stack_;
  bool root_at_front_ = false;  // section 0 is "(root)" (set by current())
  std::array<CallStats, kNumCallKinds> by_call_{};
  std::array<std::array<CallStats, kNumSizeBuckets>, kNumCallKinds> hist_{};
};

/// RAII section marker.
class Region {
 public:
  Region(RankRecorder& rec, const std::string& name) : rec_(&rec) { rec_->push_section(name); }
  ~Region() { rec_->pop_section(); }
  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;

 private:
  RankRecorder* rec_;
};

/// Per-rank row of the Fig 7 style breakdown.
struct RankBreakdown {
  int rank = 0;
  double comp_s = 0;
  double comm_user_s = 0;
  double comm_sys_s = 0;
  double io_s = 0;
};

/// The report's headline numbers in one struct — everything the paper's
/// tables quote, available programmatically in a single call rather than
/// scattered across getters or buried in text_summary() formatting.
struct AggregateStats {
  int nranks = 0;
  double wall_s = 0;
  // Per-rank means.
  double comp_s = 0;
  double comm_s = 0;
  double comm_user_s = 0;
  double comm_sys_s = 0;
  double io_s = 0;
  /// Max per-rank I/O seconds (Table III's I/O row is a max, not a mean).
  double io_max_s = 0;
  double comm_pct = 0;
  double imbalance_pct = 0;
  // Totals across ranks.
  std::uint64_t mpi_calls = 0;
  std::uint64_t mpi_bytes = 0;
};

/// Aggregated job-level report, built from all rank recorders after the run.
class JobReport {
 public:
  JobReport() = default;
  explicit JobReport(std::vector<RankRecorder> recorders);

  [[nodiscard]] int nranks() const noexcept { return static_cast<int>(recorders_.size()); }
  [[nodiscard]] double wall_seconds() const noexcept { return wall_s_; }

  /// All headline metrics in one pass (see AggregateStats).
  [[nodiscard]] AggregateStats aggregate() const;

  /// Percentage of total walltime spent in MPI (the paper's "%comm").
  [[nodiscard]] double comm_pct() const;
  /// Percentage booked as load imbalance: (max comp - mean comp) / wall.
  [[nodiscard]] double imbalance_pct() const;
  /// Mean per-rank computation / communication / I/O seconds.
  [[nodiscard]] double comp_seconds() const;
  [[nodiscard]] double comm_seconds() const;
  [[nodiscard]] double io_seconds() const;

  /// Same metrics restricted to one named section.
  [[nodiscard]] double section_comm_pct(const std::string& name) const;
  [[nodiscard]] double section_comp_seconds(const std::string& name) const;
  [[nodiscard]] double section_comm_seconds(const std::string& name) const;
  [[nodiscard]] double section_wall_seconds(const std::string& name) const;

  /// All section names observed on any rank, in first-seen order.
  [[nodiscard]] std::vector<std::string> section_names() const;

  /// Per-rank compute/comm breakdown, optionally restricted to a section
  /// (Fig 7). Section "" means whole-run totals.
  [[nodiscard]] std::vector<RankBreakdown> rank_breakdown(const std::string& section) const;

  /// Aggregate (kind x bucket) histogram over all ranks (ARRIVE-F input).
  [[nodiscard]] CallStats histogram(CallKind kind, int bucket) const;

  /// Human-readable multi-line summary (IPM-banner style).
  [[nodiscard]] std::string text_summary(const std::string& job_name) const;

  /// The classic IPM per-function table: one row per MPI call type with
  /// call counts, total bytes and time, and share of all MPI time.
  [[nodiscard]] std::string call_table_str() const;

  /// CSV of the per-rank breakdown for a section ("" = whole run):
  /// rank,comp_s,comm_user_s,comm_sys_s,io_s.
  [[nodiscard]] std::string rank_breakdown_csv(const std::string& section) const;

  [[nodiscard]] const std::vector<RankRecorder>& recorders() const noexcept {
    return recorders_;
  }

 private:
  std::vector<RankRecorder> recorders_;
  double wall_s_ = 0;
};

}  // namespace cirrus::ipm
