// minimpi: a message-passing library implemented over the cirrus simulator.
//
// Rank code is ordinary blocking C++ running on a simulator fiber; blocking
// calls suspend the fiber and resume it when the operation completes in
// virtual time. Point-to-point transfers use an eager protocol below the
// configurable threshold and rendezvous (RTS/CTS) above it; collectives are
// implemented as algorithms over point-to-point (dissemination barrier,
// binomial trees, recursive doubling, rings, pairwise exchange), so their
// cost emerges from the platform's network model rather than from
// closed-form formulas. Only the calls some workload makes exist.
//
// Model mode: any data pointer may be null, in which case the library moves
// *sized but dataless* messages — full timing, no payload. This is how the
// paper-scale (class B / N320L70 / rabbit-heart) runs stay cheap while tests
// run the same code paths with real data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "ipm/ipm.hpp"
#include "net/network.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "platform/platform.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "storage/storage.hpp"

namespace cirrus::mpi {

inline constexpr int kAnySource = -2;
inline constexpr int kAnyTag = -2;

/// Reduction operators for the typed collective wrappers.
enum class Op { Sum, Max, Min, Prod };

class Job;
class Comm;
class RankEnv;
struct JobConfig;
struct JobResult;
JobResult run_job(const JobConfig& config, const std::function<void(RankEnv&)>& body);

/// Thrown out of run_job when fault injection kills the job (node crash or
/// spot reclaim) at virtual time `at_seconds` on the job's clock. Carries the
/// killed attempt's partial trace (null unless tracing was on) so restart
/// drivers can stitch a full multi-attempt timeline.
class JobKilledError : public std::runtime_error {
 public:
  JobKilledError(double at_s, std::shared_ptr<const obs::SpanSet> partial_trace)
      : std::runtime_error("job killed by fault injection at t=" + std::to_string(at_s) + " s"),
        at_seconds(at_s),
        trace(std::move(partial_trace)) {}
  double at_seconds;
  std::shared_ptr<const obs::SpanSet> trace;
};

/// Host-side checkpoint storage that outlives individual job attempts: the
/// restart driver keeps one store across run_job calls. Ranks stage their
/// blobs during a collective checkpoint; the staged set is promoted to the
/// committed state only after the closing barrier, so a crash mid-checkpoint
/// always leaves the previous checkpoint intact (as a real two-phase
/// checkpoint protocol would).
class CheckpointStore {
 public:
  [[nodiscard]] bool has_checkpoint() const noexcept { return committed_step_ >= 0; }
  /// Step label of the last committed checkpoint (-1: none).
  [[nodiscard]] int committed_step() const noexcept { return committed_step_; }
  [[nodiscard]] int checkpoints_taken() const noexcept { return checkpoints_taken_; }
  /// Total bytes staged across all checkpoints and ranks.
  [[nodiscard]] std::size_t bytes_written() const noexcept { return bytes_written_; }
  /// Virtual time (current attempt's clock) of the last commit; negative if
  /// no checkpoint has committed during this attempt.
  [[nodiscard]] double last_commit_s() const noexcept { return last_commit_s_; }
  /// Called by the restart driver before each attempt: resets the per-attempt
  /// clock, keeps the committed data.
  void begin_attempt() noexcept { last_commit_s_ = -1.0; }

 private:
  friend class RankEnv;
  struct Blob {
    std::vector<std::byte> data;  // empty in model mode (sized but dataless)
    std::size_t bytes = 0;
  };
  void stage(int world_rank, int np, int step, const void* data, std::size_t bytes);
  void commit(double at_s);
  [[nodiscard]] const Blob* committed_blob(int world_rank) const noexcept;

  std::vector<Blob> staged_, committed_;
  int staged_step_ = -1;
  int committed_step_ = -1;
  int checkpoints_taken_ = 0;
  std::size_t bytes_written_ = 0;
  double last_commit_s_ = -1.0;
};

/// Fault injection for one job attempt: a kill and its warning. Times are
/// on the job's own clock (attempt-local); cirrus::fault generates absolute
/// crash schedules and spot reclaims and shifts them per attempt. Both
/// default to "no fault".
struct FaultInjection {
  /// Virtual time at which the job dies (node crash / spot reclaim); run_job
  /// then throws JobKilledError. Negative: never.
  double kill_at_s = -1.0;
  /// Interruption warning (EC2's two-minute notice): from this time on,
  /// RankEnv::interruption_imminent() returns true. Negative: never.
  double warn_at_s = -1.0;
};

namespace detail {
struct RequestState;
struct Mailbox;
/// Element-wise combine: acc[i] = op(acc[i], in[i]) over `bytes` of raw data.
/// A plain function pointer: every reduction is a captureless function, so
/// an allreduce builds no closure.
using Combiner = void (*)(std::byte* acc, const std::byte* in, std::size_t bytes);
template <typename T>
Combiner combiner_for(Op op);
}  // namespace detail

/// Handle for a non-blocking operation. Copyable; wait() may be called once.
class Request {
 public:
  Request() = default;
  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

 private:
  friend class Comm;
  explicit Request(std::shared_ptr<detail::RequestState> s) : state_(std::move(s)) {}
  std::shared_ptr<detail::RequestState> state_;
};

/// A communicator bound to one rank (like an MPI communicator seen from one
/// process). World communicators are created by the job launcher; split()
/// derives sub-communicators.
class Comm {
 public:
  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept { return static_cast<int>(group_.size()); }

  // ---- point to point, byte level (data may be null in model mode) ----
  // Byte-level calls carry an explicit `_bytes` suffix so they can never be
  // confused with the element-count typed wrappers below.
  void send_bytes(int dst, int tag, const void* data, std::size_t bytes);
  void recv_bytes(int src, int tag, void* data, std::size_t bytes);
  Request isend_bytes(int dst, int tag, const void* data, std::size_t bytes);
  Request irecv_bytes(int src, int tag, void* data, std::size_t bytes);
  void wait(Request& req);
  void waitall(std::span<Request> reqs);
  void sendrecv_bytes(int dst, int stag, const void* sdata, std::size_t sbytes, int src,
                      int rtag, void* rdata, std::size_t rbytes);

  // ---- typed point-to-point convenience (element counts) ----
  template <typename T>
  void send(int dst, int tag, const T* data, std::size_t n) {
    send_bytes(dst, tag, static_cast<const void*>(data), n * sizeof(T));
  }
  template <typename T>
  void recv(int src, int tag, T* data, std::size_t n) {
    recv_bytes(src, tag, static_cast<void*>(data), n * sizeof(T));
  }
  template <typename T>
  Request isend(int dst, int tag, const T* data, std::size_t n) {
    return isend_bytes(dst, tag, static_cast<const void*>(data), n * sizeof(T));
  }
  template <typename T>
  Request irecv(int src, int tag, T* data, std::size_t n) {
    return irecv_bytes(src, tag, static_cast<void*>(data), n * sizeof(T));
  }
  template <typename T>
  void sendrecv(int dst, int stag, const T* sdata, std::size_t sn, int src, int rtag, T* rdata,
                std::size_t rn) {
    sendrecv_bytes(dst, stag, sdata, sn * sizeof(T), src, rtag, rdata, rn * sizeof(T));
  }

  // ---- collectives (byte level core) ----
  void barrier();
  /// Binomial-tree broadcast (the checkpoint protocol's go/no-go decision).
  void bcast_bytes(void* data, std::size_t bytes, int root);
  /// `op` may be null (model mode: time only, no combining).
  void allreduce_bytes(const void* in, void* out, std::size_t bytes, detail::Combiner op);
  void allgather_bytes(const void* in, void* out, std::size_t bytes_each);
  void alltoall_bytes(const void* in, void* out, std::size_t bytes_each);
  /// counts are per-destination byte counts (size() entries on every rank).
  void alltoallv_bytes(const void* in, std::span<const std::size_t> send_counts, void* out,
                       std::span<const std::size_t> recv_counts);
  void scatter_bytes(const void* in, void* out, std::size_t bytes_each, int root);

  // ---- typed collective wrappers ----
  template <typename T>
  void allreduce(const T* in, T* out, std::size_t n, Op op) {
    allreduce_bytes(in, out, n * sizeof(T), detail::combiner_for<T>(op));
  }
  template <typename T>
  T allreduce_one(T value, Op op) {
    T out{};
    allreduce(&value, &out, 1, op);
    return out;
  }
  template <typename T>
  void allgather(const T* in, T* out, std::size_t n_each) {
    allgather_bytes(in, out, n_each * sizeof(T));
  }
  template <typename T>
  void alltoall(const T* in, T* out, std::size_t n_each) {
    alltoall_bytes(in, out, n_each * sizeof(T));
  }
  template <typename T>
  void scatter(const T* in, T* out, std::size_t n_each, int root) {
    scatter_bytes(in, out, n_each * sizeof(T), root);
  }

  /// Collective: partitions ranks by color (ranks ordered by key, ties by
  /// parent rank). Returns this rank's sub-communicator.
  std::unique_ptr<Comm> split(int color, int key);

  /// True while this rank is executing inside a collective (its inner
  /// point-to-point traffic is then not booked separately by IPM).
  [[nodiscard]] bool in_collective() const noexcept { return *in_coll_ != 0; }

 private:
  friend class Job;
  friend class RankEnv;
  Comm(Job& job, int comm_id, std::vector<int> group, int rank);

  // Internals (implemented in minimpi.cpp). A non-null `frame` holds the
  // request state on the caller's frame; the caller waits for the request
  // before that frame ends. A null `frame` takes a pooled state.
  //
  // Issuing never suspends. issue_send throws std::invalid_argument for a
  // destination outside [0, size()); otherwise it routes the envelope,
  // copies an eager payload and schedules the arrival, and returns when the
  // NIC frees an eager sender (now or later; `sreq` is then done); a
  // rendezvous send returns now, and `sreq` completes when its transfer
  // ends. post_recv matches an unexpected message or posts the receive.
  sim::SimTime issue_send(int dst, int tag, const void* data, std::size_t bytes,
                          const std::shared_ptr<detail::RequestState>& sreq);
  void post_recv(int src, int tag, void* data, std::size_t bytes,
                 const std::shared_ptr<detail::RequestState>& rreq);
  /// Arranges this rank's wake at `sender_free` (after now) before it
  /// suspends. With `then_wait` still open (a sendrecv's receive), resuming
  /// at sender_free would only wait for it, so the wake is reserved and the
  /// rank waits for both at once (Engine::reserve_wake); otherwise it is
  /// queued.
  void arrange_sender_wake(sim::SimTime sender_free, detail::RequestState* then_wait);
  /// Suspends until `st` is done (returns at once if it is).
  void wait_state(detail::RequestState& st);
  /// A send from the rank's fiber: issues it, waits for the NIC, and for a
  /// rendezvous transfer too when `blocking`, then books it to IPM.
  void p2p_send(int dst, int tag, const void* data, std::size_t bytes, ipm::CallKind kind,
                const std::shared_ptr<detail::RequestState>& sreq, bool blocking);
  Request p2p_recv(int src, int tag, void* data, std::size_t bytes, ipm::CallKind kind,
                   bool blocking, detail::RequestState* frame);
  struct AllreduceRounds;
  void alltoallv_impl(const void* in, std::span<const std::size_t> send_counts, void* out,
                      std::span<const std::size_t> recv_counts);
  [[nodiscard]] int world_rank_of(int r) const { return group_[static_cast<std::size_t>(r)]; }
  int next_tag() noexcept;
  /// Cached per-peer mailbox pointer (mailbox addresses are stable), so the
  /// send/recv hot path skips the job-wide hash lookup.
  detail::Mailbox& peer_mailbox(int comm_rank);

  Job* job_;
  int comm_id_;
  std::vector<int> group_;  // comm rank -> world rank
  int rank_;                // my rank within this comm
  int coll_seq_ = 0;        // per-rank collective sequence (consistent by MPI rules)
  // This rank's own ids, resolved once by the constructor (all stable for
  // the job's lifetime).
  int my_world_;
  int my_node_;
  sim::Process* proc_;
  char* in_coll_;  // this rank's Job::in_coll flag
  // comm rank -> mailbox: this rank's own slot is filled by the
  // constructor, the peers' lazily.
  std::vector<detail::Mailbox*> peer_mail_;
};

/// Traits + placement + profiling facade handed to each rank's body.
class RankEnv {
 public:
  [[nodiscard]] Comm& world() noexcept { return *world_; }
  [[nodiscard]] int rank() const noexcept;
  [[nodiscard]] int size() const noexcept;

  /// Charges `ref_seconds` of reference computation (DCC-core seconds),
  /// converted by the platform compute model.
  void compute(double ref_seconds);
  /// Reads/writes `bytes` on the job's shared filesystem.
  void io_read(std::size_t bytes, bool open_file = false);
  void io_write(std::size_t bytes, bool open_file = false);

  [[nodiscard]] ipm::RankRecorder& ipm() noexcept { return *recorder_; }
  [[nodiscard]] sim::Rng& rng() noexcept { return rng_; }
  /// True when the workload should run its real math (execute mode).
  [[nodiscard]] bool execute() const noexcept;
  [[nodiscard]] const plat::RankPlacement& placement() const noexcept;
  [[nodiscard]] const plat::Platform& platform() const noexcept;

  /// Records a named scalar result (last writer wins; typically rank 0).
  void report(const std::string& key, double value);

  /// Drops a named instant marker on this rank's trace track (no-op unless
  /// JobConfig::enable_trace). Workloads use it to label phase/task
  /// boundaries — e.g. the workflow runtime marks every task dispatch so
  /// Perfetto shows per-task spans between markers.
  void annotate(const std::string& name);

  /// Opens a causal span at the current virtual time on this rank's span
  /// track (no-op returning 0 unless JobConfig::enable_trace). Spans nest:
  /// a span opened while another is open becomes its child. Close with
  /// span_end(); still-open children are closed at the same instant.
  /// Workloads use this for task/stage attribution (e.g. wf.task →
  /// wf.stage_in / wf.compute / wf.stage_out).
  std::uint32_t span_begin(std::string_view category, std::string_view label = {});
  /// Closes span `id` at the current virtual time (no-op for id 0).
  void span_end(std::uint32_t id);

  /// Current virtual time in seconds (the job's clock).
  [[nodiscard]] double now_seconds() const noexcept;

  // ---- checkpoint/restart (no-ops unless JobConfig::checkpoint_store) ----
  /// True when the job has a CheckpointStore attached; apps use this to skip
  /// checkpoint bookkeeping entirely on plain runs (keeping event streams,
  /// and therefore determinism goldens, identical).
  [[nodiscard]] bool checkpointing() const noexcept;
  /// Collective. Rank 0 decides whether a checkpoint is due (the configured
  /// interval has elapsed, or an interruption warning is active and the last
  /// commit predates it) and broadcasts the decision; if due, every rank
  /// stages `bytes` of state (`data` may be null in model mode), pays the
  /// filesystem write, and the set commits after a barrier. Returns true when
  /// a checkpoint was taken. Must be called by all ranks with the same step.
  bool maybe_checkpoint(int step, const void* data, std::size_t bytes);
  /// Unconditional collective checkpoint (same stage/write/barrier/commit
  /// protocol, no decision broadcast).
  void checkpoint(int step, const void* data, std::size_t bytes);
  /// Restores this rank's blob from the last committed checkpoint, charging
  /// the filesystem read. Copies into `data` when both it and the stored
  /// payload are non-empty. Returns the committed step, or -1 when there is
  /// no checkpoint (or no store).
  int restore_checkpoint(void* data, std::size_t bytes);
  /// True once the platform has warned of an imminent interruption (see
  /// FaultInjection::warn_at_s) — apps should checkpoint at the next safe
  /// point.
  [[nodiscard]] bool interruption_imminent() const noexcept;

 private:
  friend class Job;
  friend JobResult run_job(const JobConfig& config, const std::function<void(RankEnv&)>& body);
  RankEnv(Job& job, int world_rank);
  Job* job_;
  int world_rank_;
  std::unique_ptr<Comm> world_;
  ipm::RankRecorder* recorder_;
  sim::Rng rng_;
};

/// Everything needed to launch a simulated MPI job.
struct JobConfig {
  plat::Platform platform;
  int np = 1;
  /// Cap on ranks per node (-1: fill every hardware thread). The paper's
  /// "EC2-4" runs use np/4 here to spread over 4 nodes.
  int max_ranks_per_node = -1;
  plat::WorkloadTraits traits;
  std::uint64_t seed = 1;
  /// Switch fabric between the nodes' NICs. The default ideal crossbar has
  /// no fabric links, so it reproduces the legacy NIC-only cost model bit
  /// for bit; fat-tree / vswitch / placement-group fabrics add per-link
  /// contention on routed paths (see topo::TopoSpec).
  topo::TopoSpec topology;
  /// How the job's logical nodes map onto fabric nodes (contiguous is the
  /// identity and therefore event-neutral).
  topo::Placement placement = topo::Placement::Contiguous;
  /// Shared-storage backend this job's I/O goes through (RankEnv::io_read /
  /// io_write, checkpoints). Nfs reproduces the legacy single-server
  /// plat::FsModel semantics bit for bit; Lustre/Object use the platform's
  /// StorageCalib (see storage::model_for).
  storage::Backend storage_backend = storage::Backend::Nfs;
  /// Below/equal: eager protocol; above: rendezvous.
  std::size_t eager_threshold_bytes = 16 * 1024;
  /// Record a trace of every compute/MPI/I-O operation, message flow and
  /// causal span (see obs::SpanSet and obs::enriched_chrome_json). Costs
  /// memory proportional to event count.
  bool enable_trace = false;
  /// Run the real math inside workloads (tests) or charge time only (paper
  /// scale)?
  bool execute = true;
  std::string name = "job";
  /// Fault injection for this attempt (kill/warn on the job-local clock).
  FaultInjection faults;
  /// Cross-attempt checkpoint storage; null disables the checkpoint API
  /// (RankEnv::maybe_checkpoint becomes a communication-free no-op). Must
  /// outlive the run_job call; the caller owns it.
  CheckpointStore* checkpoint_store = nullptr;
  /// Rank 0 triggers a checkpoint when this much virtual time has passed
  /// since the last commit (<= 0: checkpoint only on interruption warnings).
  double checkpoint_interval_s = 0;
  /// Simulator self-profiling (see obs::TelemetryConfig). Off by default:
  /// the job then schedules no telemetry events and allocates no registry,
  /// keeping the event stream bit-identical to an un-instrumented build.
  obs::TelemetryConfig telemetry;
};

/// Result of a simulated job.
struct JobResult {
  double elapsed_seconds = 0;  ///< job wall clock (virtual)
  /// Simulator events executed for this job — a determinism fingerprint:
  /// any change to scheduling or message matching shows up here.
  std::uint64_t events_processed = 0;
  ipm::JobReport ipm;
  std::map<std::string, double> values;  ///< app-reported scalars
  /// The job's trace (null unless JobConfig::enable_trace was set): rank
  /// intervals, flows, instants and causal spans (storage queue/service
  /// splits, wf task stages), in recording order.
  std::shared_ptr<const obs::SpanSet> trace;
  /// Always null (`trace` holds every span). Kept because the perfbench
  /// harness, frozen with the benchmark, still reads them.
  std::shared_ptr<const obs::SpanSet> spans;
  std::shared_ptr<const obs::SpanSet> sched_spans;
  /// The fabric the job ran over (never null; the crossbar has no links).
  std::shared_ptr<const topo::Topology> topology;
  /// Per-link utilisation, index-aligned with topology->links(). Empty on
  /// the crossbar.
  std::vector<net::LinkStats> link_stats;
  /// Per-node NIC utilisation (always populated; the crossbar's utilisation
  /// signal, since it has no fabric links).
  std::vector<net::NicStats> nic_stats;
  /// Self-profiling results (null unless JobConfig::telemetry.enabled).
  /// Gauges are frozen, so this outlives the engine safely.
  std::shared_ptr<const obs::JobTelemetry> telemetry;
  /// Storage-layer service counters (always populated) and the backend the
  /// job ran on (e.g. "NFS", "Lustre/8oss", "Object/16fe").
  storage::Stats storage_stats;
  std::string storage_name;
};

/// Launches `config.np` ranks running `body` and simulates to completion.
/// Throws sim::DeadlockError on communication deadlock and propagates any
/// exception raised inside rank bodies.
JobResult run_job(const JobConfig& config, const std::function<void(RankEnv&)>& body);

// ---- implementation of typed combiner factory ----
namespace detail {
/// acc[i] = f(acc[i], in[i]) for each whole T in `bytes`. Elements go through
/// memcpy into locals, so byte buffers of any alignment are read without
/// aliasing them as T (the copies compile to plain loads and stores).
template <typename T, typename F>
void combine_each(std::byte* acc, const std::byte* in, std::size_t bytes, F f) noexcept {
  for (std::size_t off = 0; off + sizeof(T) <= bytes; off += sizeof(T)) {
    T x{};
    T y{};
    std::memcpy(&x, acc + off, sizeof(T));
    std::memcpy(&y, in + off, sizeof(T));
    x = f(x, y);
    std::memcpy(acc + off, &x, sizeof(T));
  }
}

template <typename T>
Combiner combiner_for(Op op) {
  static_assert(std::is_trivially_copyable_v<T>, "allreduce combines raw bytes");
  switch (op) {
    case Op::Sum:
      return [](std::byte* a, const std::byte* b, std::size_t bytes) {
        combine_each<T>(a, b, bytes, [](T x, T y) { return x + y; });
      };
    case Op::Prod:
      return [](std::byte* a, const std::byte* b, std::size_t bytes) {
        combine_each<T>(a, b, bytes, [](T x, T y) { return x * y; });
      };
    case Op::Max:
      return [](std::byte* a, const std::byte* b, std::size_t bytes) {
        combine_each<T>(a, b, bytes, [](T x, T y) { return x < y ? y : x; });
      };
    case Op::Min:
      return [](std::byte* a, const std::byte* b, std::size_t bytes) {
        combine_each<T>(a, b, bytes, [](T x, T y) { return y < x ? y : x; });
      };
  }
  return nullptr;
}
}  // namespace detail

}  // namespace cirrus::mpi
