#include "mpi/minimpi.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <deque>
#include <map>
#include <tuple>
#include <unordered_map>
#include <utility>

namespace cirrus::mpi {

namespace detail {

struct RequestState {
  bool done = false;
  sim::Process* waiter = nullptr;
  std::size_t bytes = 0;
  double sys_frac = 0.0;
};

struct Mailbox;

/// Recycles byte buffers (eager payloads, collective scratch) so steady-state
/// simulation does not touch the allocator. Single-threaded by construction:
/// one pool per Job, one engine thread per Job.
class BufferPool {
 public:
  /// Keeps at most `max_pooled` idle buffers.
  explicit BufferPool(std::size_t max_pooled) : max_pooled_(max_pooled) {}

  /// An empty vector whose capacity is recycled; fill with assign/resize.
  std::vector<std::byte> acquire() {
    if (free_.empty()) return {};
    std::vector<std::byte> v = std::move(free_.back());
    free_.pop_back();
    v.clear();
    return v;
  }
  void release(std::vector<std::byte>&& v) noexcept {
    if (v.capacity() == 0 || free_.size() >= max_pooled_) return;
    free_.push_back(std::move(v));
  }

 private:
  std::size_t max_pooled_;
  std::vector<std::vector<std::byte>> free_;
};

/// Copies n <= 16 bytes through fixed-size loads into locals (both loads come
/// before any store), so the compiler emits a few moves, not a library call.
/// Two overlapping 8- or 4-byte words cover 4..16 bytes; 1..3 bytes take the
/// first, middle and last byte.
inline void copy_small(std::byte* dst, const std::byte* src, std::size_t n) noexcept {
  assert(n <= 16);
  if (n >= 8) {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    std::memcpy(&lo, src, 8);
    std::memcpy(&hi, src + n - 8, 8);
    std::memcpy(dst, &lo, 8);
    std::memcpy(dst + n - 8, &hi, 8);
  } else if (n >= 4) {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    std::memcpy(&lo, src, 4);
    std::memcpy(&hi, src + n - 4, 4);
    std::memcpy(dst, &lo, 4);
    std::memcpy(dst + n - 4, &hi, 4);
  } else if (n > 0) {
    const std::byte first = src[0];
    const std::byte mid = src[n / 2];
    const std::byte last = src[n - 1];
    dst[0] = first;
    dst[n / 2] = mid;
    dst[n - 1] = last;
  }
}

/// Byte storage with the one inline-or-pool rule of the message path: up to
/// N bytes live in the object itself (an envelope, a stack frame), larger
/// sizes lease a BufferPool vector. The size is the caller's to remember and
/// to pass back in.
template <std::size_t N>
class SmallBytes {
 public:
  SmallBytes() = default;
  SmallBytes(const SmallBytes&) = delete;
  SmallBytes& operator=(const SmallBytes&) = delete;

  /// Room for `bytes` (contents unspecified).
  std::byte* reserve(BufferPool& pool, std::size_t bytes) {
    if (bytes <= N) return inline_;
    heap_ = pool.acquire();
    heap_.resize(bytes);
    return heap_.data();
  }
  /// Copies `bytes` from `src` in; inline sizes make no library call.
  void assign(BufferPool& pool, const std::byte* src, std::size_t bytes) {
    static_assert(N <= 16, "copy_small covers at most 16 bytes");
    if (bytes <= N) {
      copy_small(inline_, src, bytes);
      return;
    }
    heap_ = pool.acquire();
    heap_.assign(src, src + bytes);
  }
  /// Copies the first `n` of the `bytes` held to `dst`.
  void copy_out(std::byte* dst, std::size_t bytes, std::size_t n) const noexcept {
    static_assert(N <= 16, "copy_small covers at most 16 bytes");
    if (bytes <= N) {
      copy_small(dst, inline_, n);
    } else {
      std::memcpy(dst, heap_.data(), n);
    }
  }
  /// Hands a leased vector back to `pool` (nothing to do for inline sizes).
  /// The vector leaves this object either way: one the pool refuses (it is
  /// full) is freed here rather than kept alive in a recycled envelope.
  void release(BufferPool& pool) noexcept {
    if (heap_.capacity() != 0) pool.release(std::exchange(heap_, {}));
  }

 private:
  std::byte inline_[N]{};
  std::vector<std::byte> heap_;
};

/// Eager payloads up to this size ride inside their envelope.
constexpr std::size_t kInlinePayloadBytes = 16;
/// Collective scratch (allreduce, scatter) up to this size lives on the
/// rank's stack.
constexpr std::size_t kInlineScratchBytes = 64;

/// An in-flight message as seen by the receiver side. While in flight it is a
/// pooled object scheduled as a raw engine event: the routing fields
/// (job/mailbox/dst_world) are resolved at send time so delivery needs no
/// lookups and no closure allocation.
struct Envelope {
  int src = 0;  // comm rank of the sender
  int tag = 0;
  std::size_t bytes = 0;
  SmallBytes<kInlinePayloadBytes> payload;  // eager copy (has_data only)
  bool has_data = false;
  bool rendezvous = false;
  const std::byte* sender_data = nullptr;  // rendezvous zero-copy source
  int src_node = 0;
  std::shared_ptr<RequestState> sreq;  // rendezvous sender completion
  double sys_frac = 0.0;
  // Flow-event provenance (only consumed when tracing is enabled).
  int src_world = 0;
  sim::SimTime sent_at = 0;
  // Delivery routing, valid while the envelope rides the event queue.
  Job* job = nullptr;
  Mailbox* mailbox = nullptr;
  int dst_world = 0;
};

/// A receive waiting for its message; src and tag may be wildcards.
struct PostedRecv {
  int src = 0;
  int tag = 0;
  std::byte* buf = nullptr;
  std::size_t bytes = 0;
  std::shared_ptr<RequestState> rreq;
};

/// A message no receive has matched yet. The envelope stays in its pool slot
/// until a receive consumes it; (src, tag) are copied inline so a scan reads
/// only this list.
struct Unexpected {
  int src = 0;
  int tag = 0;
  Envelope* env = nullptr;
};

/// Collectives tag their traffic with this bit set (Comm::next_tag). MPI
/// keeps collectives in a context of their own, so a user's kAnyTag receive
/// must never match them.
constexpr int kInternalTagBit = 1 << 24;

bool matches(int want_src, int want_tag, int src, int tag) {
  return (want_src == kAnySource || want_src == src) &&
         (want_tag == kAnyTag ? (tag & kInternalTagBit) == 0 : want_tag == tag);
}

/// One rank's receive state on one communicator.
///
/// MPI matching: an arrival takes the earliest-posted matching receive, and a
/// receive takes the earliest-arrived matching message, whether either side
/// is exact or wildcard. Both sides are flat lists in post/arrival order, so
/// each match is the first hit of a scan over one short array. On the
/// paper's jobs a delivery finds at most one posted (source, tag) pair (mean
/// 0.85) and a receive at most six unexpected ones, so a scan beats hashing.
/// Erasing from a vector keeps its capacity: steady-state matching never
/// allocates.
struct Mailbox {
  std::vector<PostedRecv> posted;
  std::vector<Unexpected> unexpected;
};

/// Fixed-size block recycler backing std::allocate_shared<RequestState>: the
/// shared_ptr control block and the state are one allocation, and that
/// allocation is reused across requests. Single-threaded, one pool per Job.
class RequestPool {
 public:
  RequestPool() = default;
  RequestPool(const RequestPool&) = delete;
  RequestPool& operator=(const RequestPool&) = delete;
  ~RequestPool() {
    for (void* p : free_) ::operator delete(p);
  }

  static constexpr std::size_t kMaxFree = 1024;
  std::vector<void*> free_;
  std::size_t block_size = 0;  // set on first allocation
};

template <typename T>
struct RequestPoolAlloc {
  using value_type = T;

  explicit RequestPoolAlloc(RequestPool* p) noexcept : pool(p) {}
  template <typename U>
  RequestPoolAlloc(const RequestPoolAlloc<U>& o) noexcept : pool(o.pool) {}

  T* allocate(std::size_t n) {
    if (n == 1) {
      if (pool->block_size == 0) pool->block_size = sizeof(T);
      if (pool->block_size == sizeof(T) && !pool->free_.empty()) {
        T* p = static_cast<T*>(pool->free_.back());
        pool->free_.pop_back();
        return p;
      }
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (n == 1 && sizeof(T) == pool->block_size && pool->free_.size() < RequestPool::kMaxFree) {
      pool->free_.push_back(p);
      return;
    }
    ::operator delete(p);
  }
  template <typename U>
  bool operator==(const RequestPoolAlloc<U>& o) const noexcept {
    return pool == o.pool;
  }

  RequestPool* pool;
};

/// Pooled objects with stable addresses (chunked deque storage), so a T* can
/// be the context of a raw engine event. Single-threaded, one slab per Job.
template <typename T>
class Slab {
 public:
  /// True when acquire() will hand back a released object.
  [[nodiscard]] bool has_free() const noexcept { return !free_.empty(); }
  T* acquire() {
    if (free_.empty()) return &storage_.emplace_back();
    T* p = free_.back();
    free_.pop_back();
    return p;
  }
  void release(T* p) { free_.push_back(p); }

 private:
  std::deque<T> storage_;
  std::vector<T*> free_;
};

/// A rendezvous completion in flight (see Job::schedule_completion).
struct Completion {
  Job* job = nullptr;
  std::shared_ptr<RequestState> req;
};

}  // namespace detail

using detail::BufferPool;
using detail::Envelope;
using detail::Mailbox;
using detail::PostedRecv;
using detail::RequestState;
using detail::SmallBytes;
using detail::Unexpected;

// ---------------------------------------------------------------------------
// Job: shared per-run state.
// ---------------------------------------------------------------------------

class Job {
  // Declared first, so destroyed last: queued envelopes, posted receives and
  // completion records may still hold pooled RequestStates when a killed or
  // deadlocked job is torn down.
  detail::RequestPool rs_pool_;

 public:
  explicit Job(const JobConfig& cfg)
      : config(cfg),
        placement(plat::place_block(cfg.platform, cfg.np, cfg.max_ranks_per_node, cfg.traits,
                                    cfg.seed)),
        network(engine, cfg.platform, node_span(), cfg.seed),
        fs(engine, storage::model_for(cfg.platform, cfg.storage_backend)),
        // Enough idle buffers for every rank's collective scratch (two) plus
        // its eager payloads in flight, so steady state never reallocates.
        buffers(std::max<std::size_t>(128, 4 * static_cast<std::size_t>(cfg.np))) {
    recorders.reserve(static_cast<std::size_t>(cfg.np));
    for (int r = 0; r < cfg.np; ++r) recorders.emplace_back(r);
    procs.resize(static_cast<std::size_t>(cfg.np), nullptr);
    in_coll.assign(static_cast<std::size_t>(cfg.np), 0);
    span_rec_.resize(static_cast<std::size_t>(cfg.np));  // default = inert
    if (cfg.enable_trace) {
      trace = std::make_shared<obs::SpanSet>();
      for (int r = 0; r < cfg.np; ++r) {
        span_rec_[static_cast<std::size_t>(r)] = obs::SpanRecorder(trace.get(), r);
      }
      global_rec_ = obs::SpanRecorder(trace.get(), -1);
    }

    // The switch fabric between the NICs. Always installed — the default
    // crossbar has no links and empty routes, so it is bit-identical to the
    // pre-topology NIC-only model while keeping the code path single.
    {
      auto topo = std::make_shared<topo::Topology>(
          topo::Topology::build(cfg.topology, cfg.platform.nic, node_span()));
      auto node_map = topo::place_nodes(*topo, cfg.placement, node_span(), cfg.seed);
      network.set_topology(std::move(topo), std::move(node_map));
    }
    if (cfg.faults.kill_at_s >= 0) {
      // Node crash / spot reclaim: the thrown exception unwinds engine.run()
      // (which drains all pending events first), killing every fiber. A job
      // that already finished must not be killed by the late fault event.
      engine.schedule_at(sim::from_seconds(cfg.faults.kill_at_s), [this] {
        if (finished_ranks < config.np) {
          global_rec_.instant(engine.now(), "fault: job killed");
          throw JobKilledError(sim::to_seconds(engine.now()), trace);
        }
      });
    }
  }

  /// Send→recv flow arrow for a just-matched envelope (trace-gated).
  /// Recorded in the receiver's context (the match happens there).
  void record_flow(const Envelope& env, int dst_world) {
    span_rec(dst_world).flow(env.src_world, env.sent_at, engine.now(), env.bytes);
  }

  /// Opens the job's live metrics: histogram handles on the match path,
  /// polled gauges over engine/network/match state, and — when a cadence is
  /// configured — sampler channels for the time series. Called before the
  /// first event runs; only ever called when telemetry is enabled.
  void setup_telemetry(obs::JobTelemetry& t) {
    h_message_bytes = t.registry.histogram("mpi_message_bytes");
    h_unexpected_depth = t.registry.histogram("mpi_unexpected_bucket_depth");

    t.registry.gauge("sim_heap_depth", {},
                     [this] { return static_cast<double>(engine.events_pending()); });
    t.registry.gauge("mpi_unexpected_depth", {},
                     [this] { return static_cast<double>(counters.unexpected_now); });
    t.registry.gauge("mpi_posted_depth", {},
                     [this] { return static_cast<double>(counters.posted_now); });
    const int nodes = node_span();
    for (int n = 0; n < nodes; ++n) {
      t.registry.gauge("net_nic_tx_busy_seconds", {{"node", std::to_string(n)}}, [this, n] {
        return sim::to_seconds(network.nic_stats()[static_cast<std::size_t>(n)].tx_busy);
      });
      t.registry.gauge("net_nic_rx_busy_seconds", {{"node", std::to_string(n)}}, [this, n] {
        return sim::to_seconds(network.nic_stats()[static_cast<std::size_t>(n)].rx_busy);
      });
    }
    const std::size_t nlinks = network.link_stats().size();
    for (std::size_t li = 0; li < nlinks; ++li) {
      t.registry.gauge("net_link_busy_seconds", {{"link", std::to_string(li)}}, [this, li] {
        return sim::to_seconds(network.link_stats()[li].busy);
      });
    }

    if (config.telemetry.sample_dt_s > 0) {
      t.sampler.add_channel("sim_heap_depth",
                            [this] { return static_cast<double>(engine.events_pending()); });
      t.sampler.add_channel("mpi_unexpected_depth",
                            [this] { return static_cast<double>(counters.unexpected_now); });
      for (int n = 0; n < nodes; ++n) {
        t.sampler.add_channel(
            obs::MetricsRegistry::series_id("net_nic_tx_busy_s", {{"node", std::to_string(n)}}),
            [this, n] {
              return sim::to_seconds(network.nic_stats()[static_cast<std::size_t>(n)].tx_busy);
            });
      }
      for (std::size_t li = 0; li < nlinks; ++li) {
        t.sampler.add_channel(
            obs::MetricsRegistry::series_id("net_link_busy_s", {{"link", std::to_string(li)}}),
            [this, li] { return sim::to_seconds(network.link_stats()[li].busy); });
      }
      // The tick re-arms only while ranks are still running, so the sampler
      // never keeps the drained event queue alive past job completion.
      t.sampler.install(engine, sim::from_seconds(config.telemetry.sample_dt_s),
                        [this] { return finished_ranks < config.np; });
    }
  }

  [[nodiscard]] int node_span() const {
    int mx = 0;
    for (const auto& p : placement) mx = std::max(mx, p.node);
    return mx + 1;
  }
  [[nodiscard]] int node_of(int world_rank) const {
    return placement[static_cast<std::size_t>(world_rank)].node;
  }

  Mailbox& mailbox(int comm_id, int world_rank) {
    // unordered_map guarantees value-address stability under rehash, so the
    // returned reference (and pointers cached from it) stays valid.
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(comm_id)) << 32) |
        static_cast<std::uint32_t>(world_rank);
    return mail_[key];
  }

  struct MpiCounters;  // defined below

  /// Pooled in-flight envelope shells; addresses are stable so an Envelope*
  /// can ride the engine's raw event path.
  Envelope* acquire_envelope() {
    ++counters.envelopes_acquired;
    if (envelopes_.has_free()) ++counters.envelopes_reused;
    return envelopes_.acquire();
  }
  /// Every other field is rewritten by the next send that takes the shell.
  void release_envelope(Envelope* env) {
    if (env->has_data) env->payload.release(buffers);
    env->has_data = false;
    env->rendezvous = false;
    env->sender_data = nullptr;
    env->sreq.reset();
    envelopes_.release(env);
  }

  /// Completes `req` at virtual time `when` through a pooled record riding
  /// the raw event path. The record holds its own reference, so the state
  /// stays alive until the event fires even if the caller drops its Request.
  void schedule_completion(sim::SimTime when, std::shared_ptr<RequestState> req);
  void release_completion(detail::Completion* c) {
    c->req.reset();
    completions_.release(c);
  }

  /// A fresh request state. With `frame` it is that caller-owned state,
  /// which must outlive the request's completion (the caller waits for it
  /// before returning): an aliasing shared_ptr with no control block, so no
  /// refcount traffic. Without, its storage (state + control block) is
  /// recycled through a per-job pool.
  std::shared_ptr<RequestState> make_request(RequestState* frame) {
    if (frame != nullptr) return std::shared_ptr<RequestState>(std::shared_ptr<void>(), frame);
    return std::allocate_shared<RequestState>(detail::RequestPoolAlloc<RequestState>(&rs_pool_));
  }

  /// Allocates a consistent communicator id for a (parent, seq, color) group.
  int split_comm_id(int parent_id, int seq, int color) {
    auto [it, inserted] = split_ids_.try_emplace({parent_id, seq, color}, next_comm_id_);
    if (inserted) ++next_comm_id_;
    return it->second;
  }

  /// The registration board of an in-progress split: one {color, key, rank}
  /// entry per rank of the parent communicator.
  std::vector<std::array<int, 3>>& split_board(int comm_id, int seq) {
    return split_boards_[{comm_id, seq}];
  }

  JobConfig config;
  sim::Engine engine;
  std::shared_ptr<obs::SpanSet> trace;  // null unless config.enable_trace
  std::vector<obs::SpanRecorder> span_rec_;  // per rank; inert when not tracing
  obs::SpanRecorder global_rec_;  // job-wide instants (track -1); inert likewise
  std::vector<plat::RankPlacement> placement;
  net::Network network;
  storage::Service fs;
  std::vector<ipm::RankRecorder> recorders;
  std::vector<sim::Process*> procs;
  std::map<std::string, double> values;
  int finished_ranks = 0;
  /// Per-rank "inside a collective" flags (suppress inner p2p accounting).
  /// One byte per world rank: fibers interleave on one OS thread, so this
  /// must be per-rank state, never thread-local.
  std::vector<char> in_coll;
  BufferPool buffers;  ///< recycled eager-payload / scratch storage

  /// Always-on intrinsic MPI-layer counters, maintained inline on the match
  /// and pool paths (plain adds, no indirection). Harvested into the obs
  /// registry and the process-wide GlobalCounters at job end. Deterministic:
  /// pure functions of the virtual event stream.
  struct MpiCounters {
    std::uint64_t sends_eager = 0;
    std::uint64_t sends_rendezvous = 0;
    std::uint64_t recvs_matched_posted = 0;      ///< envelope met a waiting recv
    std::uint64_t recvs_matched_unexpected = 0;  ///< recv found a queued envelope
    std::uint64_t recvs_posted = 0;              ///< recv had to wait (posted)
    std::uint64_t unexpected_enqueued = 0;
    std::uint64_t wildcard_scans = 0;  ///< wildcard receives' unexpected-list scans
    std::uint64_t envelopes_acquired = 0;
    std::uint64_t envelopes_reused = 0;  ///< served from the envelope free list
    std::uint64_t checkpoints_committed = 0;
    std::uint64_t checkpoint_bytes = 0;
    // Live queue depths (across the job's mailboxes) + high-water marks.
    std::uint64_t unexpected_now = 0;
    std::uint64_t unexpected_hwm = 0;
    std::uint64_t posted_now = 0;
    std::uint64_t posted_hwm = 0;
  };
  MpiCounters counters;

  /// This rank's trace recorder (inert unless config.enable_trace).
  [[nodiscard]] obs::SpanRecorder& span_rec(int world_rank) {
    return span_rec_[static_cast<std::size_t>(world_rank)];
  }

  /// Telemetry handles — null no-ops unless config.telemetry.enabled, so the
  /// default cost on the match path is one predictable branch each.
  obs::Histogram h_message_bytes;
  obs::Histogram h_unexpected_depth;

 private:
  std::unordered_map<std::uint64_t, Mailbox> mail_;  // key: comm_id << 32 | world rank
  std::map<std::tuple<int, int, int>, int> split_ids_;
  std::map<std::pair<int, int>, std::vector<std::array<int, 3>>> split_boards_;
  int next_comm_id_ = 1;
  detail::Slab<Envelope> envelopes_;
  detail::Slab<detail::Completion> completions_;
};

// ---------------------------------------------------------------------------
// CheckpointStore.
// ---------------------------------------------------------------------------

void CheckpointStore::stage(int world_rank, int np, int step, const void* data,
                            std::size_t bytes) {
  if (static_cast<int>(staged_.size()) != np) {
    staged_.assign(static_cast<std::size_t>(np), Blob{});
  }
  Blob& b = staged_[static_cast<std::size_t>(world_rank)];
  b.bytes = bytes;
  b.data.clear();
  if (data != nullptr && bytes > 0) {
    const auto* p = static_cast<const std::byte*>(data);
    b.data.assign(p, p + bytes);
  }
  staged_step_ = step;
  bytes_written_ += bytes;
}

void CheckpointStore::commit(double at_s) {
  committed_ = staged_;
  committed_step_ = staged_step_;
  ++checkpoints_taken_;
  last_commit_s_ = at_s;
}

const CheckpointStore::Blob* CheckpointStore::committed_blob(int world_rank) const noexcept {
  const auto idx = static_cast<std::size_t>(world_rank);
  if (committed_step_ < 0 || idx >= committed_.size()) return nullptr;
  return &committed_[idx];
}

// ---------------------------------------------------------------------------
// Request plumbing.
// ---------------------------------------------------------------------------

namespace {

void complete_request(sim::Engine& e, const std::shared_ptr<RequestState>& st) {
  st->done = true;
  if (st->waiter != nullptr) {
    sim::Process* w = st->waiter;
    st->waiter = nullptr;
    e.wake(*w);
  }
}

/// Raw engine-event trampoline for a rendezvous completion: ctx is a pooled
/// Completion*, returned to the pool once its request is complete.
void complete_event(void* ctx) {
  auto* c = static_cast<detail::Completion*>(ctx);
  Job& job = *c->job;
  complete_request(job.engine, c->req);
  job.release_completion(c);
}

}  // namespace

void Job::schedule_completion(sim::SimTime when, std::shared_ptr<RequestState> req) {
  detail::Completion* c = completions_.acquire();
  c->job = this;
  c->req = std::move(req);
  sim::EngineInternal::schedule_raw(engine, when, &complete_event, c);
}

namespace {

/// Kicks off the wire transfer of a matched rendezvous pair. Runs in the
/// engine context at the moment both sides are known; both requests are
/// handed to their completion events.
void start_rendezvous_transfer(Job& job, Envelope& env, PostedRecv& pr, int dst_world) {
  // The sender's buffer is stable until its request completes, and both
  // completions are in the future, so the payload can be captured now.
  if (env.sender_data != nullptr && pr.buf != nullptr) {
    std::memcpy(pr.buf, env.sender_data, std::min(env.bytes, pr.bytes));
  }
  const int dst_node = job.node_of(dst_world);
  pr.rreq->sys_frac = env.sys_frac;
  const net::TransferTiming timing = job.network.transfer(env.src_node, dst_node, env.bytes);
  const sim::SimTime cts = job.network.control_delay(dst_node, env.src_node);
  job.schedule_completion(timing.sender_free + cts, std::move(env.sreq));
  job.schedule_completion(timing.arrival + cts, std::move(pr.rreq));
}

/// Completes a matched (envelope, posted recv) pair at the receiver.
void consume_match(Job& job, int dst_world, Envelope& env, PostedRecv& pr) {
  job.record_flow(env, dst_world);
  if (env.rendezvous) {
    start_rendezvous_transfer(job, env, pr, dst_world);
  } else {
    if (env.has_data && pr.buf != nullptr) {
      env.payload.copy_out(pr.buf, env.bytes, std::min(env.bytes, pr.bytes));
    }
    pr.rreq->sys_frac = env.sys_frac;
    complete_request(job.engine, pr.rreq);
  }
}

/// Raw engine-event trampoline for message arrival (ctx is a pooled
/// Envelope*, routed at send time): matches the earliest-posted matching
/// receive and returns the envelope to the pool, or queues it as unexpected.
void deliver_event(void* ctx) {
  auto* env = static_cast<Envelope*>(ctx);
  Job& job = *env->job;
  Mailbox& mb = *env->mailbox;
  auto& c = job.counters;
  for (auto it = mb.posted.begin(); it != mb.posted.end(); ++it) {
    if (!detail::matches(it->src, it->tag, env->src, env->tag)) continue;
    PostedRecv pr = std::move(*it);
    mb.posted.erase(it);
    ++c.recvs_matched_posted;
    --c.posted_now;
    consume_match(job, env->dst_world, *env, pr);
    job.release_envelope(env);
    return;
  }
  mb.unexpected.push_back(Unexpected{env->src, env->tag, env});
  ++c.unexpected_enqueued;
  if (++c.unexpected_now > c.unexpected_hwm) c.unexpected_hwm = c.unexpected_now;
  if (job.h_unexpected_depth.enabled()) {
    // Queued messages on this (source, tag) pair, the new one included.
    std::uint64_t depth = 0;
    for (const Unexpected& u : mb.unexpected) depth += u.src == env->src && u.tag == env->tag;
    job.h_unexpected_depth.observe(depth);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Comm: point-to-point.
// ---------------------------------------------------------------------------

// Comms are built on their rank's own fiber, after run_job has registered
// its Process, so every id below is already known.
Comm::Comm(Job& job, int comm_id, std::vector<int> group, int rank)
    : job_(&job),
      comm_id_(comm_id),
      group_(std::move(group)),
      rank_(rank),
      my_world_(world_rank_of(rank)),
      my_node_(job.node_of(my_world_)),
      proc_(job.procs[static_cast<std::size_t>(my_world_)]),
      in_coll_(&job.in_coll[static_cast<std::size_t>(my_world_)]),
      peer_mail_(group_.size(), nullptr) {
  peer_mail_[static_cast<std::size_t>(rank)] = &job.mailbox(comm_id, my_world_);
}

Mailbox& Comm::peer_mailbox(int comm_rank) {
  Mailbox*& mb = peer_mail_[static_cast<std::size_t>(comm_rank)];
  if (mb == nullptr) mb = &job_->mailbox(comm_id_, world_rank_of(comm_rank));
  return *mb;
}

namespace {
/// Suppresses inner p2p IPM records while a collective wrapper is active.
struct CollGuard {
  explicit CollGuard(char& flag) : flag_(flag), prev_(flag) { flag_ = 1; }
  ~CollGuard() { flag_ = prev_; }
  char& flag_;
  char prev_;
};

[[noreturn]] [[gnu::cold]] [[gnu::noinline]] void throw_bad_destination(int dst, int np) {
  throw std::invalid_argument("send: destination rank " + std::to_string(dst) +
                              " out of range for np=" + std::to_string(np));
}
}  // namespace

sim::SimTime Comm::issue_send(int dst, int tag, const void* data, std::size_t bytes,
                              const std::shared_ptr<RequestState>& sreq) {
  // Checked in every build: a kernel's partner formula that yields a rank
  // outside the communicator must fail the job, not index past the peers.
  if (dst < 0 || dst >= size()) [[unlikely]] throw_bad_destination(dst, size());
  Job& job = *job_;
  const int dst_world = world_rank_of(dst);
  const int src_node = my_node_;
  const int dst_node = job.node_of(dst_world);
  const sim::SimTime t0 = job.engine.now();

  const double sys_frac = job.network.sys_frac(src_node, dst_node);
  sreq->bytes = bytes;
  sreq->sys_frac = sys_frac;

  Envelope* env = job.acquire_envelope();
  env->job = &job;
  env->mailbox = &peer_mailbox(dst);
  env->dst_world = dst_world;
  env->src = rank_;
  env->tag = tag;
  env->bytes = bytes;
  env->src_node = src_node;
  env->sys_frac = sys_frac;
  env->src_world = my_world_;
  env->sent_at = t0;
  job.h_message_bytes.observe(bytes);

  if (bytes <= job.config.eager_threshold_bytes) {
    ++job.counters.sends_eager;
    const net::TransferTiming timing = job.network.transfer(src_node, dst_node, bytes);
    if (data != nullptr) {
      env->payload.assign(job.buffers, static_cast<const std::byte*>(data), bytes);
      env->has_data = true;
    }
    sim::EngineInternal::schedule_raw(job.engine, timing.arrival, &deliver_event, env);
    sreq->done = true;  // the buffer is reusable once injected
    return timing.sender_free;
  }
  ++job.counters.sends_rendezvous;
  env->rendezvous = true;
  env->sender_data = static_cast<const std::byte*>(data);
  env->sreq = sreq;
  const sim::SimTime cd = job.network.control_delay(src_node, dst_node);
  sim::EngineInternal::schedule_raw(job.engine, t0 + cd, &deliver_event, env);
  return t0;
}

void Comm::arrange_sender_wake(sim::SimTime sender_free, RequestState* then_wait) {
  if (then_wait != nullptr && !then_wait->done) {
    job_->engine.reserve_wake(*proc_, sender_free);
    then_wait->waiter = proc_;
  } else {
    job_->engine.wake_at(*proc_, sender_free);
  }
}

void Comm::wait_state(RequestState& st) {
  if (st.done) return;
  assert(st.waiter == nullptr && "two processes waiting on one request");
  st.waiter = proc_;
  proc_->suspend();
  assert(st.done);
}

void Comm::p2p_send(int dst, int tag, const void* data, std::size_t bytes, ipm::CallKind kind,
                    const std::shared_ptr<RequestState>& sreq, bool blocking) {
  Job& job = *job_;
  const sim::SimTime t0 = job.engine.now();
  const sim::SimTime sender_free = issue_send(dst, tag, data, bytes, sreq);
  if (sender_free > t0) {
    arrange_sender_wake(sender_free, nullptr);
    proc_->suspend();
  }
  if (blocking) wait_state(*sreq);
  if (!in_collective()) {
    job.recorders[static_cast<std::size_t>(my_world_)].add_mpi(kind, bytes,
                                                               job.engine.now() - t0,
                                                               sreq->sys_frac);
    job.span_rec(my_world_).interval(t0, job.engine.now(), obs::mpi_category(kind), bytes, dst);
  }
}

void Comm::post_recv(int src, int tag, void* data, std::size_t bytes,
                     const std::shared_ptr<RequestState>& rreq) {
  assert((src == kAnySource || (src >= 0 && src < size())) && "recv: source out of range");
  Job& job = *job_;
  rreq->bytes = bytes;

  // The earliest-arrived matching unexpected message, if any.
  Mailbox& mb = *peer_mail_[static_cast<std::size_t>(rank_)];
  if (src == kAnySource || tag == kAnyTag) ++job.counters.wildcard_scans;
  auto it = std::find_if(mb.unexpected.begin(), mb.unexpected.end(), [&](const auto& u) {
    return detail::matches(src, tag, u.src, u.tag);
  });
  if (it != mb.unexpected.end()) {
    Envelope* env = it->env;
    mb.unexpected.erase(it);
    ++job.counters.recvs_matched_unexpected;
    --job.counters.unexpected_now;
    PostedRecv pr{src, tag, static_cast<std::byte*>(data), bytes, rreq};
    consume_match(job, my_world_, *env, pr);
    job.release_envelope(env);
  } else {
    mb.posted.push_back(PostedRecv{src, tag, static_cast<std::byte*>(data), bytes, rreq});
    auto& c = job.counters;
    ++c.recvs_posted;
    if (++c.posted_now > c.posted_hwm) c.posted_hwm = c.posted_now;
  }
}

Request Comm::p2p_recv(int src, int tag, void* data, std::size_t bytes, ipm::CallKind kind,
                       bool blocking, detail::RequestState* frame) {
  Job& job = *job_;
  const sim::SimTime t0 = job.engine.now();
  Request req(job.make_request(frame));
  post_recv(src, tag, data, bytes, req.state_);
  if (blocking) wait_state(*req.state_);
  if (!in_collective()) {
    job.recorders[static_cast<std::size_t>(my_world_)].add_mpi(kind, bytes,
                                                               job.engine.now() - t0,
                                                               req.state_->sys_frac);
    job.span_rec(my_world_).interval(t0, job.engine.now(), obs::mpi_category(kind), bytes, src);
  }
  // A blocking receive's state lives on the caller's frame; never let it
  // escape.
  return blocking ? Request() : req;
}

// Blocking calls and sendrecv wait for their requests before returning, so
// their request states live on their own frames. Only the Requests that
// isend/irecv hand out hold pooled states.

void Comm::send_bytes(int dst, int tag, const void* data, std::size_t bytes) {
  RequestState st;
  p2p_send(dst, tag, data, bytes, ipm::CallKind::Send, job_->make_request(&st),
           /*blocking=*/true);
}

void Comm::recv_bytes(int src, int tag, void* data, std::size_t bytes) {
  RequestState st;
  p2p_recv(src, tag, data, bytes, ipm::CallKind::Recv, /*blocking=*/true, &st);
}

Request Comm::isend_bytes(int dst, int tag, const void* data, std::size_t bytes) {
  Request req(job_->make_request(nullptr));
  p2p_send(dst, tag, data, bytes, ipm::CallKind::Isend, req.state_, /*blocking=*/false);
  return req;
}

Request Comm::irecv_bytes(int src, int tag, void* data, std::size_t bytes) {
  return p2p_recv(src, tag, data, bytes, ipm::CallKind::Irecv, /*blocking=*/false, nullptr);
}

void Comm::wait(Request& req) {
  if (!req.state_) return;
  Job& job = *job_;
  sim::Engine& me = job.engine;
  const sim::SimTime t0 = me.now();
  wait_state(*req.state_);
  if (!in_collective()) {
    job.recorders[static_cast<std::size_t>(my_world_)].add_mpi(
        ipm::CallKind::Wait, req.state_->bytes, me.now() - t0, req.state_->sys_frac);
    job.span_rec(my_world_)
        .interval(t0, me.now(), obs::mpi_category(ipm::CallKind::Wait), req.state_->bytes);
  }
}

void Comm::waitall(std::span<Request> reqs) {
  for (auto& r : reqs) wait(r);
}

void Comm::sendrecv_bytes(int dst, int stag, const void* sdata, std::size_t sbytes, int src,
                          int rtag, void* rdata, std::size_t rbytes) {
  Job& job = *job_;
  sim::Engine& me = job.engine;
  const sim::SimTime t0 = me.now();
  RequestState rst;
  RequestState sst;
  post_recv(src, rtag, rdata, rbytes, job.make_request(&rst));
  const sim::SimTime sender_free = issue_send(dst, stag, sdata, sbytes, job.make_request(&sst));
  if (sender_free > t0) {
    arrange_sender_wake(sender_free, &rst);
    proc_->suspend();
  }
  wait_state(sst);
  wait_state(rst);
  const double sys = std::max(sst.sys_frac, rst.sys_frac);
  if (!in_collective()) {
    job.recorders[static_cast<std::size_t>(my_world_)].add_mpi(
        ipm::CallKind::Sendrecv, sbytes + rbytes, me.now() - t0, sys);
    // The exchange records one span for both halves, or its wait time is
    // invisible to the trace — and charged to "other" by the critical-path
    // walker.
    job.span_rec(my_world_)
        .interval(t0, me.now(), obs::mpi_category(ipm::CallKind::Sendrecv), sbytes + rbytes,
                  dst);
  }
}

int Comm::next_tag() noexcept {
  // Internal tag space, disjoint from user tags (>= 0 is recommended for
  // users; internal tags have bit 24 set, and kAnyTag skips them).
  const int tag = detail::kInternalTagBit | ((coll_seq_ & 0xFFFF) << 6);
  ++coll_seq_;
  return tag;
}

// ---------------------------------------------------------------------------
// Collectives.
// ---------------------------------------------------------------------------

namespace {
/// Measures a collective and books it to IPM as one call.
struct CollTimer {
  CollTimer(Comm& c, Job& job, int world_rank, ipm::CallKind kind, std::size_t bytes)
      : job_(job), world_rank_(world_rank), kind_(kind), bytes_(bytes),
        t0_(job.engine.now()), outermost_(!c.in_collective()) {
    (void)c;
  }
  ~CollTimer() {
    if (outermost_) {
      job_.recorders[static_cast<std::size_t>(world_rank_)].add_mpi(
          kind_, bytes_, job_.engine.now() - t0_,
          job_.config.platform.nic.sys_frac * 0.7);
      job_.span_rec(world_rank_)
          .interval(t0_, job_.engine.now(), obs::mpi_category(kind_), bytes_);
    }
  }
  Job& job_;
  int world_rank_;
  ipm::CallKind kind_;
  std::size_t bytes_;
  sim::SimTime t0_;
  bool outermost_;
};
}  // namespace

void Comm::barrier() {
  const int np = size();
  CollTimer timer(*this, *job_, my_world_, ipm::CallKind::Barrier, 0);
  CollGuard guard(*in_coll_);
  if (np == 1) return;
  const int tag = next_tag();
  // Dissemination barrier: ceil(log2 np) rounds of 0-byte exchanges.
  for (int k = 1; k < np; k <<= 1) {
    const int to = (rank_ + k) % np;
    const int from = (rank_ - k % np + np) % np;
    sendrecv_bytes(to, tag, nullptr, 0, from, tag, nullptr, 0);
  }
}

void Comm::bcast_bytes(void* data, std::size_t bytes, int root) {
  const int np = size();
  CollTimer timer(*this, *job_, my_world_, ipm::CallKind::Bcast, bytes);
  CollGuard guard(*in_coll_);
  if (np == 1) return;
  const int tag = next_tag();
  const int vrank = (rank_ - root + np) % np;
  auto real = [&](int v) { return (v + root) % np; };

  // Binomial tree: receive once from the parent, then forward to children.
  int mask = 1;
  while (mask < np) {
    if (vrank & mask) {
      recv_bytes(real(vrank - mask), tag, data, bytes);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if ((vrank & (mask - 1)) == 0 && vrank + mask < np && !(vrank & mask)) {
      send_bytes(real(vrank + mask), tag, data, bytes);
    }
    mask >>= 1;
  }
}

/// One rank's allreduce rounds: MPICH-style recursive doubling, with a fold
/// for a non-power-of-two size (the first 2*rem ranks pair up; the even one
/// of each pair sits out the exchange and gets the result at the end). Each
/// round is a blocking send, recv or sendrecv of `bytes`, issued and waited
/// for exactly as those calls do, so the event stream is theirs. The state
/// lives on the rank's frame. run() goes through rounds until one must wait;
/// from then on the rank stays suspended and resume(), its resume hook,
/// carries on the rounds in place at each wake, so the rank's fiber is
/// switched to once, after the last round.
struct Comm::AllreduceRounds {
  enum class Stage : std::uint8_t { FoldIn, Exchange, FoldOut, Done };

  AllreduceRounds(Comm& c, std::byte* acc_buf, std::byte* scratch_buf, std::size_t n,
                  detail::Combiner combine)
      : comm(c), acc(acc_buf), scratch(scratch_buf), bytes(n), op(combine), tag(c.next_tag()) {
    while (pof2 * 2 <= c.size()) pof2 *= 2;
    rem = c.size() - pof2;
    stage = c.rank_ < 2 * rem ? Stage::FoldIn : Stage::Exchange;
    newrank = c.rank_ - rem;
  }

  /// Runs rounds until one must wait (false) or all are done (true).
  bool run() {
    while (stage != Stage::Done) {
      if (start_round()) return false;
      finish_round();
    }
    return true;
  }

  /// The resume hook: a wake of the rank while a round waits.
  static bool resume(void* self) {
    auto& r = *static_cast<AllreduceRounds*>(self);
    if (r.waiting()) return false;
    r.finish_round();
    return r.run();
  }

  /// Issues the current round; true if the rank must now wait.
  bool start_round() {
    const int me = comm.rank_;
    switch (stage) {
      case Stage::FoldIn:
        return me % 2 == 0 ? transfer(me + 1, -1, nullptr) : transfer(-1, me - 1, scratch);
      case Stage::Exchange: {
        const int nr = newrank ^ mask;
        const int partner = nr < rem ? nr * 2 + 1 : nr + rem;
        return transfer(partner, partner, scratch);
      }
      case Stage::FoldOut:
        // The reduced result arrives directly into acc.
        return me % 2 == 1 ? transfer(me - 1, -1, nullptr) : transfer(-1, me + 1, acc);
      case Stage::Done:
        break;
    }
    return false;
  }

  /// Sends acc to `to` and receives into `rbuf` from `from` (-1: no such
  /// half), receive posted first; true if the rank must wait.
  bool transfer(int to, int from, std::byte* rbuf) {
    Job& job = *comm.job_;
    sst = RequestState{.done = to < 0};
    rst = RequestState{.done = from < 0};
    if (from >= 0) comm.post_recv(from, tag, rbuf, bytes, job.make_request(&rst));
    if (to >= 0) {
      const sim::SimTime sender_free = comm.issue_send(to, tag, acc, bytes, job.make_request(&sst));
      if (sender_free > job.engine.now()) {
        comm.arrange_sender_wake(sender_free, &rst);
        return true;
      }
    }
    return waiting();
  }

  /// After the NIC wait (if any): waits for the send, then the receive, as
  /// a blocking call would; true while one is still open.
  bool waiting() {
    RequestState* open = !sst.done ? &sst : !rst.done ? &rst : nullptr;
    if (open == nullptr) return false;
    open->waiter = comm.proc_;
    return true;
  }

  void finish_round() {
    const int me = comm.rank_;
    switch (stage) {
      case Stage::FoldIn:
        if (me % 2 == 0) {
          stage = Stage::FoldOut;
          return;
        }
        combine();
        newrank = me / 2;
        stage = Stage::Exchange;
        return;
      case Stage::Exchange:
        combine();
        mask <<= 1;
        if (mask == pof2) stage = me < 2 * rem ? Stage::FoldOut : Stage::Done;
        return;
      case Stage::FoldOut:
      case Stage::Done:
        stage = Stage::Done;
        return;
    }
  }

  void combine() {
    if (op != nullptr) op(acc, scratch, bytes);
  }

  Comm& comm;
  std::byte* acc;      // null without data
  std::byte* scratch;  // likewise
  std::size_t bytes;
  detail::Combiner op;  // null: time only
  int tag;
  int pof2 = 1;
  int rem = 0;
  int newrank = 0;  // rank within the power-of-two exchange
  int mask = 1;     // the exchange round's partner bit
  Stage stage = Stage::Done;
  RequestState sst;
  RequestState rst;
};

void Comm::allreduce_bytes(const void* in, void* out, std::size_t bytes, detail::Combiner op) {
  CollTimer timer(*this, *job_, my_world_, ipm::CallKind::Allreduce, bytes);
  CollGuard guard(*in_coll_);
  const bool have_data = in != nullptr;
  // Up to kInlineScratchBytes both buffers sit on this frame; on an unwind
  // (a killed job) their vectors free themselves instead of going back.
  SmallBytes<detail::kInlineScratchBytes> acc_store;
  SmallBytes<detail::kInlineScratchBytes> scratch_store;
  std::byte* acc = have_data ? acc_store.reserve(job_->buffers, bytes) : nullptr;
  std::byte* scratch = have_data ? scratch_store.reserve(job_->buffers, bytes) : nullptr;
  if (have_data) std::memcpy(acc, in, bytes);
  if (size() > 1) {
    AllreduceRounds rounds(*this, acc, scratch, bytes, have_data ? op : nullptr);
    if (!rounds.run()) proc_->suspend(&AllreduceRounds::resume, &rounds);
  }
  if (out != nullptr && have_data) std::memcpy(out, acc, bytes);
  acc_store.release(job_->buffers);
  scratch_store.release(job_->buffers);
}

void Comm::allgather_bytes(const void* in, void* out, std::size_t bytes_each) {
  const int np = size();
  CollTimer timer(*this, *job_, my_world_, ipm::CallKind::Allgather,
                  bytes_each * static_cast<std::size_t>(np));
  CollGuard guard(*in_coll_);
  const bool have_data = in != nullptr && out != nullptr;
  auto* o = static_cast<std::byte*>(out);
  if (have_data) {
    std::memcpy(o + static_cast<std::size_t>(rank_) * bytes_each, in, bytes_each);
  }
  if (np == 1) return;
  const int tag = next_tag();
  if ((np & (np - 1)) == 0) {
    // Recursive doubling (power-of-two): log2(np) rounds, doubling block
    // counts — the message-count-efficient algorithm MPI libraries use for
    // small and medium allgathers.
    for (int s = 1; s < np; s <<= 1) {
      const int partner = rank_ ^ s;
      const int my_start = rank_ & ~(s - 1);        // first block I hold
      const int partner_start = partner & ~(s - 1);  // first block they hold
      sendrecv_bytes(partner, tag,
               have_data ? o + static_cast<std::size_t>(my_start) * bytes_each : nullptr,
               static_cast<std::size_t>(s) * bytes_each, partner, tag,
               have_data ? o + static_cast<std::size_t>(partner_start) * bytes_each : nullptr,
               static_cast<std::size_t>(s) * bytes_each);
    }
    return;
  }
  // Ring (general np): p-1 steps; step s forwards the block from (rank - s).
  const int to = (rank_ + 1) % np;
  const int from = (rank_ - 1 + np) % np;
  for (int s = 0; s < np - 1; ++s) {
    const int send_block = (rank_ - s + np) % np;
    const int recv_block = (rank_ - s - 1 + np) % np;
    sendrecv_bytes(to, tag + (s & 63), have_data ? o + static_cast<std::size_t>(send_block) * bytes_each : nullptr,
             bytes_each, from, tag + (s & 63),
             have_data ? o + static_cast<std::size_t>(recv_block) * bytes_each : nullptr,
             bytes_each);
  }
}

void Comm::alltoall_bytes(const void* in, void* out, std::size_t bytes_each) {
  const int np = size();
  std::vector<std::size_t> counts(static_cast<std::size_t>(np), bytes_each);
  CollTimer timer(*this, *job_, my_world_, ipm::CallKind::Alltoall,
                  bytes_each * static_cast<std::size_t>(np));
  CollGuard guard(*in_coll_);
  alltoallv_impl(in, counts, out, counts);
}

void Comm::alltoallv_bytes(const void* in, std::span<const std::size_t> send_counts, void* out,
                           std::span<const std::size_t> recv_counts) {
  std::size_t total = 0;
  for (auto c : send_counts) total += c;
  CollTimer timer(*this, *job_, my_world_, ipm::CallKind::Alltoallv, total);
  CollGuard guard(*in_coll_);
  alltoallv_impl(in, send_counts, out, recv_counts);
}

void Comm::alltoallv_impl(const void* in, std::span<const std::size_t> send_counts, void* out,
                          std::span<const std::size_t> recv_counts) {
  const int np = size();
  const auto* i = static_cast<const std::byte*>(in);
  auto* o = static_cast<std::byte*>(out);
  std::vector<std::size_t> send_off(static_cast<std::size_t>(np), 0);
  std::vector<std::size_t> recv_off(static_cast<std::size_t>(np), 0);
  for (int r = 1; r < np; ++r) {
    send_off[static_cast<std::size_t>(r)] =
        send_off[static_cast<std::size_t>(r - 1)] + send_counts[static_cast<std::size_t>(r - 1)];
    recv_off[static_cast<std::size_t>(r)] =
        recv_off[static_cast<std::size_t>(r - 1)] + recv_counts[static_cast<std::size_t>(r - 1)];
  }
  // Local block.
  if (i != nullptr && o != nullptr) {
    std::memcpy(o + recv_off[static_cast<std::size_t>(rank_)],
                i + send_off[static_cast<std::size_t>(rank_)],
                std::min(send_counts[static_cast<std::size_t>(rank_)],
                         recv_counts[static_cast<std::size_t>(rank_)]));
  }
  if (np == 1) return;
  const int tag = next_tag();
  // Pairwise exchange: step s talks to (rank + s) / (rank - s).
  for (int s = 1; s < np; ++s) {
    const int to = (rank_ + s) % np;
    const int from = (rank_ - s + np) % np;
    sendrecv_bytes(to, tag + (s & 63),
             i != nullptr ? i + send_off[static_cast<std::size_t>(to)] : nullptr,
             send_counts[static_cast<std::size_t>(to)], from, tag + (s & 63),
             o != nullptr ? o + recv_off[static_cast<std::size_t>(from)] : nullptr,
             recv_counts[static_cast<std::size_t>(from)]);
  }
}

void Comm::scatter_bytes(const void* in, void* out, std::size_t bytes_each, int root) {
  const int np = size();
  CollTimer timer(*this, *job_, my_world_, ipm::CallKind::Scatter, bytes_each);
  CollGuard guard(*in_coll_);
  const int tag = next_tag();
  const int vrank = (rank_ - root + np) % np;
  auto real = [&](int v) { return (v + root) % np; };
  const bool have_data = (rank_ == root) ? in != nullptr : out != nullptr;

  // Binomial scatter: the root's buffer is reordered to vrank order, then
  // subtree blocks flow down the tree.
  SmallBytes<detail::kInlineScratchBytes> scratch_store;
  std::byte* scratch = nullptr;  // stays null without data
  int my_span;
  int first_mask;  // the mask used to reach me from my parent
  if (vrank == 0) {
    first_mask = 1;
    while (first_mask < np) first_mask <<= 1;
    my_span = np;
    if (have_data) {
      const auto* i = static_cast<const std::byte*>(in);
      scratch = scratch_store.reserve(job_->buffers, static_cast<std::size_t>(np) * bytes_each);
      for (int v = 0; v < np; ++v) {
        std::memcpy(scratch + static_cast<std::size_t>(v) * bytes_each,
                    i + static_cast<std::size_t>(real(v)) * bytes_each, bytes_each);
      }
    }
  } else {
    first_mask = vrank & (-vrank);  // lowest set bit
    my_span = std::min(first_mask, np - vrank);
    if (have_data) {
      scratch =
          scratch_store.reserve(job_->buffers, static_cast<std::size_t>(my_span) * bytes_each);
    }
    recv_bytes(real(vrank - first_mask), tag, scratch,
         static_cast<std::size_t>(my_span) * bytes_each);
  }
  for (int mask = first_mask >> 1; mask >= 1; mask >>= 1) {
    const int child = vrank + mask;
    if (child < np && mask < my_span) {
      const int cnt = std::min(mask, my_span - mask);
      send_bytes(real(child), tag,
           have_data ? scratch + static_cast<std::size_t>(mask) * bytes_each : nullptr,
           static_cast<std::size_t>(cnt) * bytes_each);
    }
  }
  if (out != nullptr && have_data) std::memcpy(out, scratch, bytes_each);
  scratch_store.release(job_->buffers);
}

std::unique_ptr<Comm> Comm::split(int color, int key) {
  Job& job = *job_;
  const sim::SimTime t0 = job.engine.now();
  const int seq = coll_seq_;  // consumed by this split (barrier uses the next)
  job.split_board(comm_id_, seq).push_back({color, key, rank_});
  barrier();
  {
    CollGuard guard(*in_coll_);
    // After the barrier every rank has registered; derive groups
    // deterministically (identical on all ranks).
    const std::vector<std::array<int, 3>>& board = job.split_board(comm_id_, seq);
    std::vector<std::array<int, 3>> mine;
    for (const auto& e : board) {
      if (e[0] == color) mine.push_back(e);
    }
    std::sort(mine.begin(), mine.end(), [](const auto& a, const auto& b) {
      return std::tie(a[1], a[2]) < std::tie(b[1], b[2]);
    });
    // Distinct colors sorted -> stable color index for comm-id allocation.
    std::vector<int> colors;
    for (const auto& e : board) colors.push_back(e[0]);
    std::sort(colors.begin(), colors.end());
    colors.erase(std::unique(colors.begin(), colors.end()), colors.end());
    const int color_index = static_cast<int>(
        std::lower_bound(colors.begin(), colors.end(), color) - colors.begin());
    const int new_id = job.split_comm_id(comm_id_, seq, color_index);

    std::vector<int> group;
    int my_new_rank = -1;
    for (std::size_t idx = 0; idx < mine.size(); ++idx) {
      group.push_back(world_rank_of(mine[idx][2]));
      if (mine[idx][2] == rank_) my_new_rank = static_cast<int>(idx);
    }
    job.recorders[static_cast<std::size_t>(my_world_)].add_mpi(
        ipm::CallKind::Split, 0, job.engine.now() - t0, 0.1);
    return std::unique_ptr<Comm>(new Comm(job, new_id, std::move(group), my_new_rank));
  }
}

// ---------------------------------------------------------------------------
// RankEnv.
// ---------------------------------------------------------------------------

RankEnv::RankEnv(Job& job, int world_rank)
    : job_(&job),
      world_rank_(world_rank),
      recorder_(&job.recorders[static_cast<std::size_t>(world_rank)]),
      rng_(sim::Rng(job.config.seed).fork(0xE44 + static_cast<std::uint64_t>(world_rank))) {
  std::vector<int> identity(static_cast<std::size_t>(job.config.np));
  for (int r = 0; r < job.config.np; ++r) identity[static_cast<std::size_t>(r)] = r;
  world_ = std::unique_ptr<Comm>(new Comm(job, /*comm_id=*/0, std::move(identity), world_rank));
}

int RankEnv::rank() const noexcept { return world_rank_; }
int RankEnv::size() const noexcept { return job_->config.np; }

void RankEnv::compute(double ref_seconds) {
  if (ref_seconds <= 0) return;
  const sim::SimTime t0 = job_->engine.now();
  const sim::SimTime t = plat::compute_time(
      job_->config.platform, job_->placement[static_cast<std::size_t>(world_rank_)],
      job_->config.traits, ref_seconds, rng_);
  job_->procs[static_cast<std::size_t>(world_rank_)]->advance(t);
  recorder_->add_compute(t);
  job_->span_rec(world_rank_).interval(t0, job_->engine.now(), obs::kComputeCategory);
}

namespace {
/// Queue-vs-service spans for one storage request [t0, done] (trace-gated).
/// The storage layer reports the head-of-line wait as one leading interval —
/// exact for NFS/Object (single completion front), first-order for Lustre
/// (stripes overlap; the MDS/OSS wait is lumped up front).
void record_storage_spans(Job& job, int world_rank, sim::SimTime t0, sim::SimTime done,
                          sim::SimTime queued) {
  obs::SpanRecorder& rec = job.span_rec(world_rank);
  if (!rec.enabled() || done <= t0) return;
  const char* backend = storage::to_string(job.fs.model().backend);
  if (queued > 0) rec.record(t0, t0 + queued, "storage.queue", backend);
  rec.record(t0 + queued, done, "storage.service", backend);
}
}  // namespace

void RankEnv::io_read(std::size_t bytes, bool open_file) {
  sim::Engine& me = job_->engine;
  const sim::SimTime t0 = me.now();
  const sim::SimTime done = job_->fs.read(bytes, open_file);
  const sim::SimTime queued = job_->fs.last_op().queued;
  sim::Process& proc = *job_->procs[static_cast<std::size_t>(world_rank_)];
  if (done > t0) {
    me.wake_at(proc, done);
    proc.suspend();
  }
  recorder_->add_io(me.now() - t0);
  job_->span_rec(world_rank_).interval(t0, me.now(), obs::kIoCategory, bytes);
  record_storage_spans(*job_, world_rank_, t0, done, queued);
}

void RankEnv::io_write(std::size_t bytes, bool open_file) {
  sim::Engine& me = job_->engine;
  const sim::SimTime t0 = me.now();
  const sim::SimTime done = job_->fs.write(bytes, open_file);
  const sim::SimTime queued = job_->fs.last_op().queued;
  sim::Process& proc = *job_->procs[static_cast<std::size_t>(world_rank_)];
  if (done > t0) {
    me.wake_at(proc, done);
    proc.suspend();
  }
  recorder_->add_io(me.now() - t0);
  job_->span_rec(world_rank_).interval(t0, me.now(), obs::kIoCategory, bytes);
  record_storage_spans(*job_, world_rank_, t0, done, queued);
}

void RankEnv::annotate(const std::string& name) {
  job_->span_rec(world_rank_).instant(job_->engine.now(), name);
}

std::uint32_t RankEnv::span_begin(std::string_view category, std::string_view label) {
  return job_->span_rec(world_rank_).begin(job_->engine.now(), category, label);
}

void RankEnv::span_end(std::uint32_t id) {
  job_->span_rec(world_rank_).end(id, job_->engine.now());
}

bool RankEnv::checkpointing() const noexcept { return job_->config.checkpoint_store != nullptr; }

bool RankEnv::interruption_imminent() const noexcept {
  const double warn = job_->config.faults.warn_at_s;
  return warn >= 0 && sim::to_seconds(job_->engine.now()) >= warn;
}

bool RankEnv::maybe_checkpoint(int step, const void* data, std::size_t bytes) {
  CheckpointStore* store = job_->config.checkpoint_store;
  if (store == nullptr) return false;
  char go = 0;
  if (world_rank_ == 0) {
    const double since = now_seconds() - std::max(0.0, store->last_commit_s());
    const double interval = job_->config.checkpoint_interval_s;
    const bool due = interval > 0 && since >= interval;
    // After a warning one checkpoint suffices: skip once a commit postdates
    // the warning time.
    const bool warned =
        interruption_imminent() && store->last_commit_s() < job_->config.faults.warn_at_s;
    go = (due || warned) ? 1 : 0;
  }
  world_->bcast_bytes(&go, 1, 0);
  if (go == 0) return false;
  checkpoint(step, data, bytes);
  return true;
}

void RankEnv::checkpoint(int step, const void* data, std::size_t bytes) {
  CheckpointStore* store = job_->config.checkpoint_store;
  if (store == nullptr) return;
  store->stage(world_rank_, job_->config.np, step, data, bytes);
  job_->counters.checkpoint_bytes += bytes;
  io_write(bytes, /*open_file=*/true);
  world_->barrier();
  // The barrier proves every rank's write completed; only then does the
  // staged set become the restart point.
  if (world_rank_ == 0) {
    store->commit(now_seconds());
    ++job_->counters.checkpoints_committed;
    job_->global_rec_.instant(job_->engine.now(),
                              "checkpoint commit (step " + std::to_string(step) + ")");
  }
}

int RankEnv::restore_checkpoint(void* data, std::size_t bytes) {
  CheckpointStore* store = job_->config.checkpoint_store;
  if (store == nullptr) return -1;
  const auto* blob = store->committed_blob(world_rank_);
  if (blob == nullptr) return -1;
  io_read(blob->bytes, /*open_file=*/true);
  if (data != nullptr && !blob->data.empty()) {
    std::memcpy(data, blob->data.data(), std::min(bytes, blob->data.size()));
  }
  return store->committed_step();
}

bool RankEnv::execute() const noexcept { return job_->config.execute; }

const plat::RankPlacement& RankEnv::placement() const noexcept {
  return job_->placement[static_cast<std::size_t>(world_rank_)];
}

const plat::Platform& RankEnv::platform() const noexcept { return job_->config.platform; }

void RankEnv::report(const std::string& key, double value) {
  job_->values[key] = value;
}

double RankEnv::now_seconds() const noexcept {
  return sim::to_seconds(job_->engine.now());
}

// ---------------------------------------------------------------------------
// Job launcher.
// ---------------------------------------------------------------------------

namespace {

/// One finished job's intrinsic counter under its canonical series id.
/// `global` marks values that are pure functions of the virtual event
/// stream — identical for any --jobs worker count — so they feed the
/// process-wide GlobalCounters totals. The others describe execution
/// mechanics (queue depth high-water marks, pool reuse, fiber switches);
/// they are published to a profiling run's own registry only.
struct IntrinsicCounter {
  const char* name;
  std::uint64_t value;
  bool global;
};

std::vector<IntrinsicCounter> intrinsic_counters(const Job& job) {
  const sim::Engine::Stats& es = job.engine.stats();
  const net::NetStats& ns = job.network.stats();
  const storage::Stats& ss = job.fs.stats();
  const Job::MpiCounters& mc = job.counters;
  return {
      {"sim_events_total", job.engine.events_processed(), true},
      {"sim_events_wake", es.wake_events, true},
      {"sim_events_callback", es.callback_events, true},
      {"sim_events_raw", es.raw_events, true},
      {"sim_fiber_switches", es.fiber_switches, false},
      {"sim_heap_depth_hwm", es.heap_hwm, false},
      {"sim_slab_slots_hwm", es.slab_slots_hwm, false},
      {"sim_slab_reuses", es.slab_reuses, false},
      {"sim_deadlock_scans", es.deadlock_scans, false},
      {"net_transfers_internode", ns.transfers_internode, true},
      {"net_transfers_intranode", ns.transfers_intranode, true},
      {"net_bytes_internode", ns.bytes_internode, true},
      {"net_bytes_intranode", ns.bytes_intranode, true},
      {"net_routed_hops", ns.routed_hops, true},
      {"net_incast_collisions", ns.incast_collisions, true},
      {"net_jitter_spikes", ns.jitter_spikes, true},
      {"net_control_messages", ns.control_messages, true},
      {"mpi_sends_eager", mc.sends_eager, true},
      {"mpi_sends_rendezvous", mc.sends_rendezvous, true},
      {"mpi_recvs_matched_posted", mc.recvs_matched_posted, true},
      {"mpi_recvs_matched_unexpected", mc.recvs_matched_unexpected, true},
      {"mpi_recvs_posted", mc.recvs_posted, true},
      {"mpi_unexpected_enqueued", mc.unexpected_enqueued, true},
      {"mpi_unexpected_hwm", mc.unexpected_hwm, false},
      {"mpi_posted_hwm", mc.posted_hwm, false},
      {"mpi_wildcard_scans", mc.wildcard_scans, true},
      {"mpi_envelopes_acquired", mc.envelopes_acquired, true},
      {"mpi_envelopes_reused", mc.envelopes_reused, false},
      {"mpi_checkpoints_committed", mc.checkpoints_committed, true},
      {"mpi_checkpoint_bytes", mc.checkpoint_bytes, true},
      // Storage-layer service counters: requests are serviced in event
      // order, so every field — including the queueing times — is a pure
      // function of the event stream.
      {"storage_reads", ss.reads, true},
      {"storage_writes", ss.writes, true},
      {"storage_opens", ss.opens, true},
      {"storage_bytes_read", ss.bytes_read, true},
      {"storage_bytes_written", ss.bytes_written, true},
      {"storage_busy_ns", static_cast<std::uint64_t>(ss.busy), true},
      {"storage_queued_ns", static_cast<std::uint64_t>(ss.queued), true},
  };
}

}  // namespace

JobResult run_job(const JobConfig& config, const std::function<void(RankEnv&)>& body) {
  if (config.np <= 0) throw std::invalid_argument("run_job: np must be positive");
  Job job(config);
  std::shared_ptr<obs::JobTelemetry> telemetry;
  if (config.telemetry.enabled) {
    telemetry = std::make_shared<obs::JobTelemetry>();
    job.setup_telemetry(*telemetry);
  }
  for (int r = 0; r < config.np; ++r) {
    job.engine.spawn(config.name + "/rank" + std::to_string(r), [&job, &body, r](sim::Process& p) {
      job.procs[static_cast<std::size_t>(r)] = &p;
      RankEnv env(job, r);
      body(env);
      job.recorders[static_cast<std::size_t>(r)].finish(job.engine.now());
      ++job.finished_ranks;
    });
  }
  job.engine.run();

  // Publish intrinsic counters: the event-stream ones into the process-wide
  // totals (one short lock per job; keeps the totals byte-identical for any
  // --jobs), all of them into the job's own registry when profiling.
  const auto intrinsic = intrinsic_counters(job);
  {
    std::vector<std::pair<std::string, std::uint64_t>> global;
    global.reserve(intrinsic.size());
    for (const auto& c : intrinsic) {
      if (c.global) global.emplace_back(c.name, c.value);
    }
    obs::GlobalCounters::instance().add(global);
  }
  if (telemetry != nullptr) {
    for (const auto& c : intrinsic) telemetry->registry.counter(c.name).inc(c.value);
    // Freeze polled gauges so the telemetry bundle is self-contained once
    // the engine and network die with this frame.
    telemetry->registry.freeze_gauges();
  }

  JobResult result;
  result.events_processed = job.engine.events_processed();
  result.ipm = ipm::JobReport(std::move(job.recorders));
  result.elapsed_seconds = result.ipm.wall_seconds();
  result.values = std::move(job.values);
  result.storage_stats = job.fs.stats();
  result.storage_name = job.fs.model().name;
  result.trace = job.trace;
  result.topology = job.network.topology_ptr();
  result.link_stats = job.network.link_stats();
  result.nic_stats = job.network.nic_stats();
  result.telemetry = std::move(telemetry);
  return result;
}

}  // namespace cirrus::mpi
