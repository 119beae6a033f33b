#include "mpi/minimpi.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <deque>
#include <map>
#include <tuple>
#include <unordered_map>

namespace cirrus::mpi {

namespace detail {

struct RequestState {
  bool done = false;
  sim::Process* waiter = nullptr;
  std::size_t bytes = 0;
  double sys_frac = 0.0;
};

struct Mailbox;

/// An in-flight message as seen by the receiver side. While in flight it is a
/// pooled object scheduled as a raw engine event: the routing fields
/// (job/mailbox/dst_world) are resolved at send time so delivery needs no
/// lookups and no closure allocation.
struct Envelope {
  int src = 0;  // comm rank of the sender
  int tag = 0;
  std::size_t bytes = 0;
  std::vector<std::byte> payload;  // eager copy (empty in model mode)
  bool has_data = false;
  bool rendezvous = false;
  const std::byte* sender_data = nullptr;  // rendezvous zero-copy source
  int src_node = 0;
  std::shared_ptr<RequestState> sreq;  // rendezvous sender completion
  double sys_frac = 0.0;
  std::uint64_t seq = 0;  // per-mailbox arrival order (wildcard arbitration)
  // Flow-event provenance (only consumed when tracing is enabled).
  int src_world = 0;
  sim::SimTime sent_at = 0;
  // Delivery routing, valid while the envelope rides the event queue.
  Job* job = nullptr;
  Mailbox* mailbox = nullptr;
  int dst_world = 0;
};

struct PostedRecv {
  int src = 0;
  int tag = 0;
  std::byte* buf = nullptr;
  std::size_t bytes = 0;
  std::shared_ptr<RequestState> rreq;
  std::uint64_t seq = 0;  // per-mailbox post order (wildcard arbitration)
};

bool matches(int want_src, int want_tag, int src, int tag) {
  return (want_src == kAnySource || want_src == src) &&
         (want_tag == kAnyTag || want_tag == tag);
}

/// Packs a concrete (source rank, tag) pair into one hash key.
inline std::uint64_t match_key(int src, int tag) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
         static_cast<std::uint32_t>(tag);
}

/// FIFO over a power-of-two ring of slots. Popping never frees and pushing
/// reuses the slots, so a queue that has reached its working depth stops
/// touching the allocator (std::deque frees and reallocates a node every few
/// elements as a FIFO walks through it).
template <typename T>
class Fifo {
 public:
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] T& front() noexcept { return slots_[head_]; }
  [[nodiscard]] const T& front() const noexcept { return slots_[head_]; }

  void push_back(T&& v) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(v);
    ++size_;
  }
  /// Moves the head out and removes it (the queue must not be empty).
  T pop_front() {
    T v = std::move(slots_[head_]);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    return v;
  }

 private:
  void grow() {
    std::vector<T> next(slots_.empty() ? 2 : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_.swap(next);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

template <typename V>
using BucketMap = std::unordered_map<std::uint64_t, Fifo<V>>;

/// One rank's receive state on one communicator.
///
/// MPI matching is FIFO per (source, tag) with wildcard receives ordered
/// against exact ones by post time. Both sides of the match are therefore
/// bucketed by the concrete (source, tag) key — O(1) for the exact-match
/// fast path — while wildcard receives sit in a separate FIFO; monotonic
/// per-mailbox sequence numbers arbitrate exact-vs-wildcard so the outcome
/// is identical to scanning one combined queue in arrival/post order.
struct Mailbox {
  BucketMap<Envelope> unexpected;
  BucketMap<PostedRecv> posted_exact;
  // Wildcarded receives (src and/or tag), in post order. Short by nature;
  // erasing from a vector keeps its capacity.
  std::vector<PostedRecv> posted_wild;
  std::uint64_t next_arrival_seq = 0;
  std::uint64_t next_post_seq = 0;
  // Emptied buckets leave their map (collectives allocate a fresh tag per
  // call, so stale keys would otherwise accumulate without bound) as
  // extracted node handles: the hash node and its Fifo's slots are re-keyed
  // and re-inserted for the next bucket, so steady-state matching never
  // allocates.
  std::vector<BucketMap<Envelope>::node_type> spare_env;
  std::vector<BucketMap<PostedRecv>::node_type> spare_recv;
};

/// Most emptied buckets a mailbox keeps per side for re-use.
inline constexpr std::size_t kMaxSpareBuckets = 8;

/// The bucket for `key`, re-keying a spare node when the key is new.
template <typename V>
Fifo<V>& bucket_get(BucketMap<V>& m, std::uint64_t key,
                    std::vector<typename BucketMap<V>::node_type>& spare) {
  if (auto it = m.find(key); it != m.end()) return it->second;
  if (spare.empty()) return m.try_emplace(key).first->second;
  auto node = std::move(spare.back());
  spare.pop_back();
  node.key() = key;
  return m.insert(std::move(node)).position->second;
}

/// Pops a bucket's head; an emptied bucket leaves the map as a spare node.
template <typename V>
V bucket_pop(BucketMap<V>& m, typename BucketMap<V>::iterator it,
             std::vector<typename BucketMap<V>::node_type>& spare) {
  V v = it->second.pop_front();
  if (it->second.empty()) {
    if (spare.size() < kMaxSpareBuckets) {
      spare.push_back(m.extract(it));
    } else {
      m.erase(it);
    }
  }
  return v;
}

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
  /// A vector of exactly `bytes` size (contents unspecified).
  std::vector<std::byte> acquire(std::size_t bytes) {
    std::vector<std::byte> v = acquire();
    v.resize(bytes);
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

/// RAII lease of a BufferPool vector. Default-constructed = no buffer (the
/// model-mode "no data" case); data() is then nullptr.
class PooledBytes {
 public:
  PooledBytes() = default;
  PooledBytes(BufferPool& pool, std::size_t bytes) : pool_(&pool), buf_(pool.acquire(bytes)) {}
  ~PooledBytes() {
    if (pool_ != nullptr) pool_->release(std::move(buf_));
  }
  PooledBytes(const PooledBytes&) = delete;
  PooledBytes& operator=(const PooledBytes&) = delete;

  /// Late acquisition for buffers whose size is only known mid-function.
  void reset(BufferPool& pool, std::size_t bytes) {
    if (pool_ != nullptr) pool_->release(std::move(buf_));
    pool_ = &pool;
    buf_ = pool.acquire(bytes);
  }

  [[nodiscard]] std::byte* data() noexcept { return pool_ != nullptr ? buf_.data() : nullptr; }
  [[nodiscard]] std::vector<std::byte>& vec() noexcept { return buf_; }

 private:
  BufferPool* pool_ = nullptr;
  std::vector<std::byte> buf_;
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
using detail::match_key;
using detail::PooledBytes;
using detail::PostedRecv;
using detail::RequestState;

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
        engine(sim::Engine::Options{.seed = cfg.seed}),
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
    if (cfg.faults.any_link_hook()) {
      network.set_fault_hooks(cfg.faults.link_bw_factor, cfg.faults.link_extra_latency_us);
    }
    if (cfg.faults.any_fabric_hook()) {
      network.set_link_fault_hooks(cfg.faults.fabric_bw_factor,
                                   cfg.faults.fabric_extra_latency_us);
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
  void release_envelope(Envelope* env) {
    buffers.release(std::move(env->payload));
    *env = Envelope{};
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

  /// A fresh RequestState whose storage (state + shared_ptr control block)
  /// is recycled through a per-job pool.
  std::shared_ptr<RequestState> make_request() {
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
    std::uint64_t wildcard_scans = 0;  ///< wildcard bucket scans (recv side)
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
void consume_match(Job& job, int dst_world, Envelope&& env, PostedRecv& pr) {
  job.record_flow(env, dst_world);
  if (env.rendezvous) {
    start_rendezvous_transfer(job, env, pr, dst_world);
  } else {
    if (env.has_data && pr.buf != nullptr) {
      std::memcpy(pr.buf, env.payload.data(), std::min(env.bytes, pr.bytes));
    }
    pr.rreq->sys_frac = env.sys_frac;
    complete_request(job.engine, pr.rreq);
  }
  job.buffers.release(std::move(env.payload));
}

/// Delivers an envelope at the receiver: match the earliest-posted matching
/// receive (exact bucket head vs wildcard FIFO, arbitrated by post sequence)
/// or queue the envelope as unexpected. Routing was resolved at send time.
void deliver(Job& job, Envelope&& env) {
  const int dst_world = env.dst_world;
  Mailbox& mb = *env.mailbox;

  auto exact_it = mb.posted_exact.find(match_key(env.src, env.tag));
  const PostedRecv* exact = exact_it != mb.posted_exact.end() && !exact_it->second.empty()
                                ? &exact_it->second.front()
                                : nullptr;
  auto wild_it = mb.posted_wild.begin();
  for (; wild_it != mb.posted_wild.end(); ++wild_it) {
    if (detail::matches(wild_it->src, wild_it->tag, env.src, env.tag)) break;
  }
  const PostedRecv* wild = wild_it != mb.posted_wild.end() ? &*wild_it : nullptr;

  if (exact != nullptr && (wild == nullptr || exact->seq < wild->seq)) {
    PostedRecv pr = detail::bucket_pop(mb.posted_exact, exact_it, mb.spare_recv);
    ++job.counters.recvs_matched_posted;
    --job.counters.posted_now;
    consume_match(job, dst_world, std::move(env), pr);
  } else if (wild != nullptr) {
    PostedRecv pr = std::move(*wild_it);
    mb.posted_wild.erase(wild_it);
    ++job.counters.recvs_matched_posted;
    --job.counters.posted_now;
    consume_match(job, dst_world, std::move(env), pr);
  } else {
    env.seq = mb.next_arrival_seq++;
    auto& bucket =
        detail::bucket_get(mb.unexpected, match_key(env.src, env.tag), mb.spare_env);
    bucket.push_back(std::move(env));
    auto& c = job.counters;
    ++c.unexpected_enqueued;
    if (++c.unexpected_now > c.unexpected_hwm) c.unexpected_hwm = c.unexpected_now;
    job.h_unexpected_depth.observe(bucket.size());
  }
}

/// Raw engine-event trampoline for message arrival: ctx is a pooled
/// Envelope*, returned to the pool once delivery (or queueing) is done.
void deliver_event(void* ctx) {
  auto* env = static_cast<Envelope*>(ctx);
  Job& job = *env->job;
  deliver(job, std::move(*env));
  job.release_envelope(env);
}

}  // namespace

// ---------------------------------------------------------------------------
// Comm: point-to-point.
// ---------------------------------------------------------------------------

Comm::Comm(Job& job, int comm_id, std::vector<int> group, int rank)
    : job_(&job), comm_id_(comm_id), group_(std::move(group)), rank_(rank) {}

Mailbox& Comm::peer_mailbox(int comm_rank) {
  if (peer_mail_.empty()) peer_mail_.assign(group_.size(), nullptr);
  Mailbox*& mb = peer_mail_[static_cast<std::size_t>(comm_rank)];
  if (mb == nullptr) mb = &job_->mailbox(comm_id_, world_rank_of(comm_rank));
  return *mb;
}

bool Comm::in_collective() const noexcept {
  return job_->in_coll[static_cast<std::size_t>(world_rank_of(rank_))] != 0;
}

namespace {
/// Suppresses inner p2p IPM records while a collective wrapper is active.
struct CollGuard {
  explicit CollGuard(char& flag) : flag_(flag), prev_(flag) { flag_ = 1; }
  ~CollGuard() { flag_ = prev_; }
  char& flag_;
  char prev_;
};
}  // namespace


void Comm::p2p_send(int dst, int tag, const void* data, std::size_t bytes, ipm::CallKind kind,
                    bool blocking, Request* out) {
  assert(dst >= 0 && dst < size() && "send: destination out of range");
  Job& job = *job_;
  const int src_world = world_rank_of(rank_);
  const int dst_world = world_rank_of(dst);
  const int src_node = job.node_of(src_world);
  const int dst_node = job.node_of(dst_world);
  sim::Process& proc = *job.procs[static_cast<std::size_t>(src_world)];
  sim::Engine& se = job.engine;
  const sim::SimTime t0 = se.now();
  Job::MpiCounters& mc = job.counters;

  const double sys_frac = job.network.sys_frac(src_node, dst_node);

  Envelope* env = job.acquire_envelope();
  env->job = &job;
  env->mailbox = &peer_mailbox(dst);
  env->dst_world = dst_world;
  env->src = rank_;
  env->tag = tag;
  env->bytes = bytes;
  env->src_node = src_node;
  env->sys_frac = sys_frac;
  env->src_world = src_world;
  env->sent_at = t0;
  job.h_message_bytes.observe(bytes);

  const bool eager = bytes <= job.config.eager_threshold_bytes;
  if (eager) {
    ++mc.sends_eager;
  } else {
    ++mc.sends_rendezvous;
  }
  // Blocking eager sends complete locally the moment the NIC is free, so they
  // need no RequestState at all; one is allocated (pooled) only when a Request
  // handle escapes the call. A blocking rendezvous send cannot return before
  // its completion event fires, so its state can live on this very stack frame
  // — the aliasing shared_ptr has no control block and costs no refcounting.
  RequestState stack_rs;
  std::shared_ptr<RequestState> sreq;
  if (eager) {
    const net::TransferTiming timing = job.network.transfer(src_node, dst_node, bytes);
    if (data != nullptr) {
      const auto* p = static_cast<const std::byte*>(data);
      env->payload = job.buffers.acquire();
      env->payload.assign(p, p + bytes);
      env->has_data = true;
    }
    sim::EngineInternal::schedule_raw(job.engine, timing.arrival, &deliver_event, env);
    if (timing.sender_free > t0) {
      se.wake_at(proc, timing.sender_free);
      proc.suspend();
    }
    if (out != nullptr) {
      sreq = job.make_request();
      sreq->bytes = bytes;
      sreq->sys_frac = sys_frac;
      sreq->done = true;  // buffer is reusable once injected
    }
  } else {
    if (blocking && out == nullptr) {
      sreq = std::shared_ptr<RequestState>(std::shared_ptr<void>(), &stack_rs);
    } else {
      sreq = job.make_request();
    }
    sreq->bytes = bytes;
    sreq->sys_frac = sys_frac;
    env->rendezvous = true;
    env->sender_data = static_cast<const std::byte*>(data);
    env->sreq = sreq;
    const sim::SimTime cd = job.network.control_delay(src_node, dst_node);
    sim::EngineInternal::schedule_raw(job.engine, t0 + cd, &deliver_event, env);
  }

  if (blocking && sreq != nullptr) {
    Request req(sreq);
    wait_internal(req);
  }
  if (!in_collective()) {
    job.recorders[static_cast<std::size_t>(src_world)].add_mpi(kind, bytes, se.now() - t0,
                                                               sys_frac);
    job.span_rec(src_world).interval(t0, se.now(), obs::mpi_category(kind), bytes, dst);
  }
  if (out != nullptr) *out = Request(sreq);
}

Request Comm::p2p_recv(int src, int tag, void* data, std::size_t bytes, ipm::CallKind kind,
                       bool blocking) {
  assert((src == kAnySource || (src >= 0 && src < size())) && "recv: source out of range");
  Job& job = *job_;
  const int my_world = world_rank_of(rank_);
  sim::Engine& me = job.engine;
  const sim::SimTime t0 = me.now();

  // A blocking receive cannot return before its completion wake, so its state
  // can live on this stack frame (aliasing shared_ptr: no control block, no
  // refcount traffic). Non-blocking receives hand out a real pooled state.
  RequestState stack_rs;
  std::shared_ptr<RequestState> rreq =
      blocking ? std::shared_ptr<RequestState>(std::shared_ptr<void>(), &stack_rs)
               : job.make_request();
  rreq->bytes = bytes;

  Mailbox& mb = peer_mailbox(rank_);
  // Find the earliest-arrived matching unexpected envelope. Exact (src, tag):
  // the head of that bucket. Wildcard: the minimum arrival sequence over the
  // heads of matching buckets (each bucket is FIFO, so heads suffice).
  auto bucket_it = mb.unexpected.end();
  if (src != kAnySource && tag != kAnyTag) {
    auto it = mb.unexpected.find(match_key(src, tag));
    if (it != mb.unexpected.end() && !it->second.empty()) bucket_it = it;
  } else {
    ++job.counters.wildcard_scans;
    std::uint64_t best_seq = 0;
    for (auto it = mb.unexpected.begin(); it != mb.unexpected.end(); ++it) {
      if (it->second.empty()) continue;
      const Envelope& head = it->second.front();
      if (!detail::matches(src, tag, head.src, head.tag)) continue;
      if (bucket_it == mb.unexpected.end() || head.seq < best_seq) {
        bucket_it = it;
        best_seq = head.seq;
      }
    }
  }
  if (bucket_it != mb.unexpected.end()) {
    Envelope env = detail::bucket_pop(mb.unexpected, bucket_it, mb.spare_env);
    ++job.counters.recvs_matched_unexpected;
    --job.counters.unexpected_now;
    job.record_flow(env, my_world);
    if (env.rendezvous) {
      PostedRecv pr{src, tag, static_cast<std::byte*>(data), bytes, rreq, 0};
      start_rendezvous_transfer(job, env, pr, my_world);
    } else {
      if (env.has_data && data != nullptr) {
        std::memcpy(data, env.payload.data(), std::min(env.bytes, bytes));
      }
      rreq->sys_frac = env.sys_frac;
      complete_request(me, rreq);
    }
    job.buffers.release(std::move(env.payload));
  } else {
    PostedRecv pr{src, tag, static_cast<std::byte*>(data), bytes, rreq, mb.next_post_seq++};
    if (src != kAnySource && tag != kAnyTag) {
      detail::bucket_get(mb.posted_exact, match_key(src, tag), mb.spare_recv)
          .push_back(std::move(pr));
    } else {
      mb.posted_wild.push_back(std::move(pr));
    }
    auto& c = job.counters;
    ++c.recvs_posted;
    if (++c.posted_now > c.posted_hwm) c.posted_hwm = c.posted_now;
  }

  Request req(std::move(rreq));
  if (blocking) {
    wait_internal(req);
  }
  if (!in_collective()) {
    job.recorders[static_cast<std::size_t>(my_world)].add_mpi(kind, bytes, me.now() - t0,
                                                              req.state_->sys_frac);
    job.span_rec(my_world).interval(t0, me.now(), obs::mpi_category(kind), bytes, src);
  }
  // A blocking receive's state lives on this frame; never let it escape.
  return blocking ? Request() : req;
}

void Comm::wait_internal(Request& req) {
  if (!req.state_) return;
  auto& st = *req.state_;
  if (!st.done) {
    sim::Process& proc = *job_->procs[static_cast<std::size_t>(world_rank_of(rank_))];
    assert(st.waiter == nullptr && "two processes waiting on one request");
    st.waiter = &proc;
    proc.suspend();
    assert(st.done);
  }
}

void Comm::send_bytes(int dst, int tag, const void* data, std::size_t bytes) {
  p2p_send(dst, tag, data, bytes, ipm::CallKind::Send, /*blocking=*/true, nullptr);
}

void Comm::recv_bytes(int src, int tag, void* data, std::size_t bytes) {
  p2p_recv(src, tag, data, bytes, ipm::CallKind::Recv, /*blocking=*/true);
}

Request Comm::isend_bytes(int dst, int tag, const void* data, std::size_t bytes) {
  Request req;
  p2p_send(dst, tag, data, bytes, ipm::CallKind::Isend, /*blocking=*/false, &req);
  return req;
}

Request Comm::irecv_bytes(int src, int tag, void* data, std::size_t bytes) {
  return p2p_recv(src, tag, data, bytes, ipm::CallKind::Irecv, /*blocking=*/false);
}

void Comm::wait(Request& req) {
  Job& job = *job_;
  sim::Engine& me = job.engine;
  const sim::SimTime t0 = me.now();
  wait_internal(req);
  if (!in_collective() && req.state_) {
    job.recorders[static_cast<std::size_t>(world_rank_of(rank_))].add_mpi(
        ipm::CallKind::Wait, req.state_->bytes, me.now() - t0, req.state_->sys_frac);
    job.span_rec(world_rank_of(rank_))
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
  double sys = 0;
  {
    CollGuard guard(job_->in_coll[static_cast<std::size_t>(world_rank_of(rank_))]);
    Request rr = irecv_bytes(src, rtag, rdata, rbytes);
    Request sr = isend_bytes(dst, stag, sdata, sbytes);
    wait_internal(sr);
    wait_internal(rr);
    sys = std::max(sr.state_->sys_frac, rr.state_->sys_frac);
  }
  if (!in_collective()) {
    job.recorders[static_cast<std::size_t>(world_rank_of(rank_))].add_mpi(
        ipm::CallKind::Sendrecv, sbytes + rbytes, me.now() - t0, sys);
    // The inner isend/irecv suppress their own spans (CollGuard), so the
    // exchange must record one itself or its wait time is invisible to the
    // trace — and charged to "other" by the critical-path walker.
    job.span_rec(world_rank_of(rank_))
        .interval(t0, me.now(), obs::mpi_category(ipm::CallKind::Sendrecv), sbytes + rbytes,
                  dst);
  }
}

bool Comm::iprobe(int src, int tag) const {
  const Mailbox& mb = job_->mailbox(comm_id_, world_rank_of(rank_));
  if (src != kAnySource && tag != kAnyTag) {
    const auto it = mb.unexpected.find(match_key(src, tag));
    return it != mb.unexpected.end() && !it->second.empty();
  }
  for (const auto& [key, bucket] : mb.unexpected) {
    if (bucket.empty()) continue;
    const Envelope& head = bucket.front();
    if (detail::matches(src, tag, head.src, head.tag)) return true;
  }
  return false;
}

int Comm::next_tag() noexcept {
  // Internal tag space, disjoint from user tags (>= 0 is recommended for
  // users; internal tags have bit 24 set).
  const int tag = (1 << 24) | ((coll_seq_ & 0xFFFF) << 6);
  ++coll_seq_;
  return tag;
}

// ---------------------------------------------------------------------------
// Collectives.
// ---------------------------------------------------------------------------

namespace {
/// Broadcasts larger than this use scatter + allgather (van de Geijn)
/// instead of the binomial tree.
constexpr std::size_t kBcastLongBytes = 512 * 1024;

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
  CollTimer timer(*this, *job_, world_rank_of(rank_), ipm::CallKind::Barrier, 0);
  CollGuard guard(job_->in_coll[static_cast<std::size_t>(world_rank_of(rank_))]);
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
  CollTimer timer(*this, *job_, world_rank_of(rank_), ipm::CallKind::Bcast, bytes);
  CollGuard guard(job_->in_coll[static_cast<std::size_t>(world_rank_of(rank_))]);
  if (np == 1) return;
  if (bytes > kBcastLongBytes && bytes >= static_cast<std::size_t>(np)) {
    // van de Geijn long-message broadcast: scatter the buffer, then
    // allgather the pieces — bandwidth-optimal for large payloads.
    const std::size_t each = bytes / static_cast<std::size_t>(np);
    const std::size_t remainder = bytes - each * static_cast<std::size_t>(np);
    auto* bytes_ptr = static_cast<std::byte*>(data);
    PooledBytes piece = data != nullptr ? PooledBytes(job_->buffers, each) : PooledBytes();
    scatter_bytes(data, data != nullptr ? piece.data() : nullptr, each, root);
    allgather_bytes(data != nullptr ? piece.data() : nullptr, data, each);
    if (remainder > 0) {
      // The tail that does not divide evenly travels down the binomial tree.
      bcast_short(bytes_ptr == nullptr ? nullptr : bytes_ptr + bytes - remainder, remainder,
                  root);
    }
    return;
  }
  bcast_short(data, bytes, root);
}

void Comm::bcast_short(void* data, std::size_t bytes, int root) {
  const int np = size();
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

void Comm::reduce_bytes(const void* in, void* out, std::size_t bytes, int root,
                        const detail::Combiner& op) {
  const int np = size();
  CollTimer timer(*this, *job_, world_rank_of(rank_), ipm::CallKind::Reduce, bytes);
  CollGuard guard(job_->in_coll[static_cast<std::size_t>(world_rank_of(rank_))]);
  const bool have_data = in != nullptr;
  PooledBytes acc = have_data ? PooledBytes(job_->buffers, bytes) : PooledBytes();
  PooledBytes scratch = have_data ? PooledBytes(job_->buffers, bytes) : PooledBytes();
  if (have_data) std::memcpy(acc.data(), in, bytes);
  if (np > 1) {
    const int tag = next_tag();
    const int vrank = (rank_ - root + np) % np;
    auto real = [&](int v) { return (v + root) % np; };
    // Binomial reduction tree (mirror of bcast).
    int mask = 1;
    while (mask < np) {
      if ((vrank & mask) == 0) {
        const int child = vrank | mask;
        if (child < np) {
          recv_bytes(real(child), tag, have_data ? scratch.data() : nullptr, bytes);
          if (have_data && op) op(acc.data(), scratch.data(), bytes);
        }
      } else {
        send_bytes(real(vrank & ~mask), tag, have_data ? acc.data() : nullptr, bytes);
        break;
      }
      mask <<= 1;
    }
  }
  if (rank_ == root && out != nullptr && have_data) {
    std::memcpy(out, acc.data(), bytes);
  }
}

void Comm::allreduce_bytes(const void* in, void* out, std::size_t bytes,
                           const detail::Combiner& op) {
  const int np = size();
  CollTimer timer(*this, *job_, world_rank_of(rank_), ipm::CallKind::Allreduce, bytes);
  CollGuard guard(job_->in_coll[static_cast<std::size_t>(world_rank_of(rank_))]);
  const bool have_data = in != nullptr;
  PooledBytes acc = have_data ? PooledBytes(job_->buffers, bytes) : PooledBytes();
  PooledBytes scratch = have_data ? PooledBytes(job_->buffers, bytes) : PooledBytes();
  if (have_data) std::memcpy(acc.data(), in, bytes);
  if (np > 1) {
    const int tag = next_tag();
    // MPICH-style recursive doubling with a non-power-of-two fold.
    int pof2 = 1;
    while (pof2 * 2 <= np) pof2 *= 2;
    const int rem = np - pof2;
    int newrank;
    if (rank_ < 2 * rem) {
      if (rank_ % 2 == 0) {
        send_bytes(rank_ + 1, tag, have_data ? acc.data() : nullptr, bytes);
        newrank = -1;
      } else {
        recv_bytes(rank_ - 1, tag, have_data ? scratch.data() : nullptr, bytes);
        if (have_data && op) op(acc.data(), scratch.data(), bytes);
        newrank = rank_ / 2;
      }
    } else {
      newrank = rank_ - rem;
    }
    if (newrank >= 0) {
      auto real = [&](int nr) { return nr < rem ? nr * 2 + 1 : nr + rem; };
      for (int mask = 1; mask < pof2; mask <<= 1) {
        const int partner = real(newrank ^ mask);
        sendrecv_bytes(partner, tag, have_data ? acc.data() : nullptr, bytes, partner, tag,
                 have_data ? scratch.data() : nullptr, bytes);
        if (have_data && op) op(acc.data(), scratch.data(), bytes);
      }
    }
    if (rank_ < 2 * rem) {
      if (rank_ % 2 == 1) {
        send_bytes(rank_ - 1, tag, have_data ? acc.data() : nullptr, bytes);
      } else {
        recv_bytes(rank_ + 1, tag, have_data ? acc.data() : nullptr, bytes);
        if (have_data) {
          // The reduced result arrived directly into acc.
        }
      }
    }
  }
  if (out != nullptr && have_data) std::memcpy(out, acc.data(), bytes);
}

void Comm::allgather_bytes(const void* in, void* out, std::size_t bytes_each) {
  const int np = size();
  CollTimer timer(*this, *job_, world_rank_of(rank_), ipm::CallKind::Allgather,
                  bytes_each * static_cast<std::size_t>(np));
  CollGuard guard(job_->in_coll[static_cast<std::size_t>(world_rank_of(rank_))]);
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
  CollTimer timer(*this, *job_, world_rank_of(rank_), ipm::CallKind::Alltoall,
                  bytes_each * static_cast<std::size_t>(np));
  CollGuard guard(job_->in_coll[static_cast<std::size_t>(world_rank_of(rank_))]);
  alltoallv_impl(in, counts, out, counts);
}

void Comm::alltoallv_bytes(const void* in, std::span<const std::size_t> send_counts, void* out,
                           std::span<const std::size_t> recv_counts) {
  std::size_t total = 0;
  for (auto c : send_counts) total += c;
  CollTimer timer(*this, *job_, world_rank_of(rank_), ipm::CallKind::Alltoallv, total);
  CollGuard guard(job_->in_coll[static_cast<std::size_t>(world_rank_of(rank_))]);
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

void Comm::gather_bytes(const void* in, void* out, std::size_t bytes_each, int root) {
  const int np = size();
  CollTimer timer(*this, *job_, world_rank_of(rank_), ipm::CallKind::Gather, bytes_each);
  CollGuard guard(job_->in_coll[static_cast<std::size_t>(world_rank_of(rank_))]);
  const int tag = next_tag();
  const int vrank = (rank_ - root + np) % np;
  auto real = [&](int v) { return (v + root) % np; };
  const bool have_data = in != nullptr;

  // Binomial gather: vrank v accumulates the contiguous vrank block
  // [v, v + held); blocks arrive at scratch offset `mask`.
  int span = 1;  // upper bound on blocks this rank will hold
  for (int m = 1; m < np; m <<= 1) {
    if ((vrank & m) == 0) span = std::min(2 * m, np - vrank);
  }
  PooledBytes scratch =
      have_data ? PooledBytes(job_->buffers, static_cast<std::size_t>(span) * bytes_each)
                : PooledBytes();
  if (have_data) std::memcpy(scratch.data(), in, bytes_each);
  int held = 1;
  for (int mask = 1; mask < np; mask <<= 1) {
    if (vrank & mask) {
      send_bytes(real(vrank - mask), tag,
           have_data ? scratch.data() : nullptr, static_cast<std::size_t>(held) * bytes_each);
      break;
    }
    const int child = vrank + mask;
    if (child < np) {
      const int cnt = std::min(mask, np - child);
      recv_bytes(real(child), tag,
           have_data ? scratch.data() + static_cast<std::size_t>(mask) * bytes_each : nullptr,
           static_cast<std::size_t>(cnt) * bytes_each);
      held = mask + cnt;
    }
  }
  if (rank_ == root && out != nullptr && have_data) {
    auto* o = static_cast<std::byte*>(out);
    for (int v = 0; v < np; ++v) {
      std::memcpy(o + static_cast<std::size_t>(real(v)) * bytes_each,
                  scratch.data() + static_cast<std::size_t>(v) * bytes_each, bytes_each);
    }
  }
}

void Comm::scatter_bytes(const void* in, void* out, std::size_t bytes_each, int root) {
  const int np = size();
  CollTimer timer(*this, *job_, world_rank_of(rank_), ipm::CallKind::Scatter, bytes_each);
  CollGuard guard(job_->in_coll[static_cast<std::size_t>(world_rank_of(rank_))]);
  const int tag = next_tag();
  const int vrank = (rank_ - root + np) % np;
  auto real = [&](int v) { return (v + root) % np; };
  const bool have_data = (rank_ == root) ? in != nullptr : out != nullptr;

  // Binomial scatter: the root's buffer is reordered to vrank order, then
  // subtree blocks flow down the tree.
  PooledBytes scratch;
  int my_span;
  int first_mask;  // the mask used to reach me from my parent
  if (vrank == 0) {
    first_mask = 1;
    while (first_mask < np) first_mask <<= 1;
    my_span = np;
    if (have_data) {
      const auto* i = static_cast<const std::byte*>(in);
      scratch.reset(job_->buffers, static_cast<std::size_t>(np) * bytes_each);
      for (int v = 0; v < np; ++v) {
        std::memcpy(scratch.data() + static_cast<std::size_t>(v) * bytes_each,
                    i + static_cast<std::size_t>(real(v)) * bytes_each, bytes_each);
      }
    }
  } else {
    first_mask = vrank & (-vrank);  // lowest set bit
    my_span = std::min(first_mask, np - vrank);
    if (have_data) scratch.reset(job_->buffers, static_cast<std::size_t>(my_span) * bytes_each);
    recv_bytes(real(vrank - first_mask), tag, have_data ? scratch.data() : nullptr,
         static_cast<std::size_t>(my_span) * bytes_each);
  }
  for (int mask = first_mask >> 1; mask >= 1; mask >>= 1) {
    const int child = vrank + mask;
    if (child < np && mask < my_span) {
      const int cnt = std::min(mask, my_span - mask);
      send_bytes(real(child), tag,
           have_data ? scratch.data() + static_cast<std::size_t>(mask) * bytes_each : nullptr,
           static_cast<std::size_t>(cnt) * bytes_each);
    }
  }
  if (out != nullptr && have_data) std::memcpy(out, scratch.data(), bytes_each);
}

void Comm::reduce_scatter_block_bytes(const void* in, void* out, std::size_t bytes_each,
                                      const detail::Combiner& op) {
  const int np = size();
  CollTimer timer(*this, *job_, world_rank_of(rank_), ipm::CallKind::ReduceScatter,
                  bytes_each * static_cast<std::size_t>(np));
  CollGuard guard(job_->in_coll[static_cast<std::size_t>(world_rank_of(rank_))]);
  const bool pow2 = (np & (np - 1)) == 0;
  const bool have_data = in != nullptr;
  if (!pow2) {
    // Fallback: full reduce at rank 0, then scatter.
    PooledBytes full;
    if (have_data && rank_ == 0) {
      full.reset(job_->buffers, bytes_each * static_cast<std::size_t>(np));
    }
    reduce_bytes(in, rank_ == 0 ? full.data() : nullptr, bytes_each * static_cast<std::size_t>(np),
                 0, op);
    scatter_bytes(rank_ == 0 ? full.data() : nullptr, out, bytes_each, 0);
    return;
  }
  PooledBytes buf, tmp;
  if (have_data) {
    buf.reset(job_->buffers, bytes_each * static_cast<std::size_t>(np));
    std::memcpy(buf.data(), in, bytes_each * static_cast<std::size_t>(np));
    tmp.reset(job_->buffers, bytes_each * static_cast<std::size_t>(np / 2 == 0 ? 1 : np / 2));
  }
  const int tag = next_tag();
  int lo = 0;
  for (int h = np / 2; h >= 1; h /= 2) {
    const int partner = rank_ ^ h;
    const std::size_t half_bytes = static_cast<std::size_t>(h) * bytes_each;
    const bool upper = (rank_ & h) != 0;
    const std::size_t keep_off = static_cast<std::size_t>(lo + (upper ? h : 0)) * bytes_each;
    const std::size_t give_off = static_cast<std::size_t>(lo + (upper ? 0 : h)) * bytes_each;
    sendrecv_bytes(partner, tag, have_data ? buf.data() + give_off : nullptr, half_bytes, partner, tag,
             have_data ? tmp.data() : nullptr, half_bytes);
    if (have_data && op) op(buf.data() + keep_off, tmp.data(), half_bytes);
    if (upper) lo += h;
  }
  if (out != nullptr && have_data) {
    std::memcpy(out, buf.data() + static_cast<std::size_t>(rank_) * bytes_each, bytes_each);
  }
}

void Comm::scan_bytes(const void* in, void* out, std::size_t bytes,
                      const detail::Combiner& op) {
  const int np = size();
  CollTimer timer(*this, *job_, world_rank_of(rank_), ipm::CallKind::Reduce, bytes);
  CollGuard guard(job_->in_coll[static_cast<std::size_t>(world_rank_of(rank_))]);
  const bool have_data = in != nullptr;
  PooledBytes acc = have_data ? PooledBytes(job_->buffers, bytes) : PooledBytes();
  PooledBytes scratch = have_data ? PooledBytes(job_->buffers, bytes) : PooledBytes();
  if (have_data) std::memcpy(acc.data(), in, bytes);
  if (np > 1) {
    // Hillis–Steele inclusive scan: log2 rounds; rank r receives from
    // r - 2^k and sends to r + 2^k.
    const int tag = next_tag();
    for (int k = 1; k < np; k <<= 1) {
      const int to = rank_ + k;
      const int from = rank_ - k;
      Request sreq, rreq;
      if (to < np) sreq = isend_bytes(to, tag + (k & 63), have_data ? acc.data() : nullptr, bytes);
      if (from >= 0) {
        rreq = irecv_bytes(from, tag + (k & 63), have_data ? scratch.data() : nullptr, bytes);
        wait_internal(rreq);
      }
      if (to < np) wait_internal(sreq);
      if (from >= 0 && have_data && op) {
        // Received partial covers [from-k+1 .. from]; combine it (in place)
        // with acc, then swap the roles of the two buffers. op(a, b) computes
        // a = a (+) b elementwise; order is irrelevant for the commutative
        // ops we expose.
        op(scratch.data(), acc.data(), bytes);
        acc.vec().swap(scratch.vec());
      }
    }
  }
  if (out != nullptr && have_data) std::memcpy(out, acc.data(), bytes);
}

void Comm::allgatherv_bytes(const void* in, void* out,
                            std::span<const std::size_t> recv_counts) {
  const int np = size();
  std::size_t total = 0;
  for (const auto c : recv_counts) total += c;
  CollTimer timer(*this, *job_, world_rank_of(rank_), ipm::CallKind::Allgatherv, total);
  CollGuard guard(job_->in_coll[static_cast<std::size_t>(world_rank_of(rank_))]);
  const bool have_data = in != nullptr && out != nullptr;
  std::vector<std::size_t> offsets(static_cast<std::size_t>(np) + 1, 0);
  for (int r = 0; r < np; ++r) {
    offsets[static_cast<std::size_t>(r) + 1] =
        offsets[static_cast<std::size_t>(r)] + recv_counts[static_cast<std::size_t>(r)];
  }
  auto* o = static_cast<std::byte*>(out);
  if (have_data) {
    std::memcpy(o + offsets[static_cast<std::size_t>(rank_)], in,
                recv_counts[static_cast<std::size_t>(rank_)]);
  }
  if (np == 1) return;
  // Ring with per-block sizes.
  const int tag = next_tag();
  const int to = (rank_ + 1) % np;
  const int from = (rank_ - 1 + np) % np;
  for (int s = 0; s < np - 1; ++s) {
    const int send_block = (rank_ - s + np) % np;
    const int recv_block = (rank_ - s - 1 + np) % np;
    sendrecv_bytes(to, tag + (s & 63),
                   have_data ? o + offsets[static_cast<std::size_t>(send_block)] : nullptr,
                   recv_counts[static_cast<std::size_t>(send_block)], from, tag + (s & 63),
                   have_data ? o + offsets[static_cast<std::size_t>(recv_block)] : nullptr,
                   recv_counts[static_cast<std::size_t>(recv_block)]);
  }
}

std::unique_ptr<Comm> Comm::split(int color, int key) {
  Job& job = *job_;
  const sim::SimTime t0 = job.engine.now();
  const int seq = coll_seq_;  // consumed by this split (barrier uses the next)
  job.split_board(comm_id_, seq).push_back({color, key, rank_});
  barrier();
  {
    CollGuard guard(job_->in_coll[static_cast<std::size_t>(world_rank_of(rank_))]);
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
    job.recorders[static_cast<std::size_t>(world_rank_of(rank_))].add_mpi(
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
  sim::SimTime t = plat::compute_time(
      job_->config.platform, job_->placement[static_cast<std::size_t>(world_rank_)],
      job_->config.traits, ref_seconds, rng_);
  if (const auto& slow = job_->config.faults.compute_slowdown; slow) {
    // Straggler / hypervisor-stall injection: the factor is sampled at the
    // start of the chunk (chunks are short relative to stall windows).
    const double f = slow(placement().node, sim::to_seconds(t0));
    if (f > 1.0) t = static_cast<sim::SimTime>(static_cast<double>(t) * f);
  }
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
  world_->bcast(&go, 1, 0);
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
