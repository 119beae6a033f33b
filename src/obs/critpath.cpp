#include "obs/critpath.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <tuple>

namespace cirrus::obs::critpath {

namespace {

using ipm::CallKind;

bool is_recv_like(CallKind c) noexcept {
  switch (c) {
    case CallKind::Recv:
    case CallKind::Irecv:
    case CallKind::Wait:
    case CallKind::Sendrecv:
      return true;
    default:
      return false;
  }
}

}  // namespace

const char* to_string(Category c) noexcept {
  switch (c) {
    case Category::Compute: return "compute";
    case Category::MpiWait: return "mpi wait";
    case Category::FabricSerialization: return "fabric serialization";
    case Category::StorageQueue: return "storage queue";
    case Category::StorageService: return "storage service";
    case Category::BarrierLookahead: return "barrier lookahead";
    case Category::Other: return "other";
    case Category::kCount: break;
  }
  return "?";
}

const char* slug(Category c) noexcept {
  switch (c) {
    case Category::Compute: return "compute";
    case Category::MpiWait: return "mpi_wait";
    case Category::FabricSerialization: return "fabric_serialization";
    case Category::StorageQueue: return "storage_queue";
    case Category::StorageService: return "storage_service";
    case Category::BarrierLookahead: return "barrier_lookahead";
    case Category::Other: return "other";
    case Category::kCount: break;
  }
  return "?";
}

std::array<double, kNumCategories> Blame::fractions() const noexcept {
  std::array<double, kNumCategories> f{};
  if (makespan <= 0) return f;
  for (int i = 0; i < kNumCategories; ++i) {
    f[static_cast<std::size_t>(i)] =
        static_cast<double>(by_category[static_cast<std::size_t>(i)]) /
        static_cast<double>(makespan);
  }
  return f;
}

std::string Blame::format(std::size_t top_edges) const {
  std::ostringstream os;
  const auto f = fractions();
  os << "critical path: makespan " << sim::to_seconds(makespan) << " s, ends on rank "
     << end_rank << "\n";
  for (int i = 0; i < kNumCategories; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (by_category[idx] == 0) continue;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%6.2f%%", f[idx] * 100.0);
    os << "  " << buf << "  " << to_string(static_cast<Category>(i)) << "  ("
       << sim::to_seconds(by_category[idx]) << " s)\n";
  }
  if (!edges.empty()) {
    os << "top critical-path edges (src->dst, crossings, bytes, flight):\n";
    for (std::size_t i = 0; i < edges.size() && i < top_edges; ++i) {
      const Edge& e = edges[i];
      os << "  " << e.src_rank << " -> " << e.dst_rank << "  x" << e.crossings << "  "
         << e.bytes << " B  " << sim::to_seconds(e.flight) << " s\n";
    }
  }
  return os.str();
}

Blame attribute(const SpanSet& trace, const SpanSet* /*unused*/) {
  Blame blame;
  const auto& spans = trace.spans();
  const auto& flows = trace.flows();

  // Completion = latest interval end; ties broken toward the smallest rank
  // so the walk's starting point is a total function of the trace. T0 =
  // earliest interval begin (normally 0).
  std::size_t intervals = 0;
  sim::SimTime t_end = 0;
  sim::SimTime t0 = 0;
  int end_rank = 0;
  int max_rank = 0;
  for (const Span& e : spans) {
    if (e.kind != SpanKind::Interval) continue;
    if (intervals++ == 0) {
      t_end = e.end;
      t0 = e.begin;
      end_rank = e.track;
    }
    if (e.end > t_end || (e.end == t_end && e.track < end_rank)) {
      t_end = e.end;
      end_rank = e.track;
    }
    t0 = std::min(t0, e.begin);
    max_rank = std::max(max_rank, e.track);
  }
  if (intervals == 0) return blame;
  blame.end_rank = end_rank;
  blame.makespan = t_end - t0;
  const auto nranks = static_cast<std::size_t>(max_rank) + 1;
  blame.per_rank.assign(nranks, 0);
  if (blame.makespan <= 0) return blame;

  // Per-rank indices into the set, in recording order (which is begin order
  // per rank): the intervals, and the storage layer's storage.queue spans.
  // The storage layer records queue [t, t+q] + service [t+q, done] with the
  // queue span sharing the I/O interval's begin, so an exact-begin lookup
  // recovers q.
  const auto queue_cat = trace.find_category("storage.queue");
  std::vector<std::vector<std::uint32_t>> by_rank(nranks);
  std::vector<std::vector<std::uint32_t>> queues(nranks);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.track < 0 || s.track > max_rank) continue;
    const auto r = static_cast<std::size_t>(s.track);
    if (s.kind == SpanKind::Interval) {
      by_rank[r].push_back(static_cast<std::uint32_t>(i));
    } else if (s.kind == SpanKind::Causal && s.category == queue_cat) {
      queues[r].push_back(static_cast<std::uint32_t>(i));
    }
  }
  // Inbound-flow indices per receiver, sorted by recv time for the causal
  // jump search.
  std::vector<std::vector<std::uint32_t>> inbound(nranks);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (flows[i].dst >= 0 && flows[i].dst <= max_rank) {
      inbound[static_cast<std::size_t>(flows[i].dst)].push_back(static_cast<std::uint32_t>(i));
    }
  }
  for (auto& v : inbound) {
    std::sort(v.begin(), v.end(), [&flows](std::uint32_t a, std::uint32_t b) {
      return std::tie(flows[a].recv, flows[a].send, flows[a].src) <
             std::tie(flows[b].recv, flows[b].send, flows[b].src);
    });
  }

  std::map<std::pair<int, int>, Edge> edge_map;
  auto charge = [&blame](int rank, sim::SimTime b, sim::SimTime e, Category cat) {
    if (e <= b) return;
    blame.by_category[static_cast<std::size_t>(cat)] += e - b;
    if (rank >= 0 && rank < static_cast<int>(blame.per_rank.size())) {
      blame.per_rank[static_cast<std::size_t>(rank)] += e - b;
    }
    blame.segments.push_back(Segment{rank, b, e, cat});
  };

  // Backward walk. Cursor (rank, t): the path reaches rank `rank` at time
  // `t`; everything in (t, t_end] is already attributed. Each iteration
  // strictly decreases t or (at constant t) the event index, so the walk
  // terminates; the explicit cap is a belt-and-braces guard for malformed
  // traces (remainder lands in "other").
  int rank = end_rank;
  sim::SimTime t = t_end;
  std::size_t guard = 2 * (intervals + flows.size()) + 16;
  while (t > t0 && guard-- > 0) {
    const auto& evs = by_rank[static_cast<std::size_t>(rank)];
    // Last event of this rank with begin < t.
    auto it = std::upper_bound(evs.begin(), evs.end(), t, [&spans](sim::SimTime x, std::uint32_t i) {
      return x <= spans[i].begin;
    });
    if (it == evs.begin()) {
      // Nothing earlier on this rank: the remaining prefix is untraced.
      charge(rank, t0, t, Category::Other);
      t = t0;
      break;
    }
    const Span& e = spans[*(it - 1)];
    if (e.end < t) {
      // Gap between events — untraced local activity.
      charge(rank, e.end, t, Category::Other);
      t = e.end;
      continue;
    }
    const sim::SimTime t_eff = std::min(e.end, t);

    if (e.category == kComputeCategory) {
      charge(rank, e.begin, t_eff, Category::Compute);
      t = e.begin;
      continue;
    }
    if (e.category == kIoCategory) {
      // Queue-then-service split from the storage layer's span pair; without
      // spans the whole interval is service time.
      sim::SimTime q_end = e.begin;
      const auto& q = queues[static_cast<std::size_t>(rank)];
      const auto qi = std::upper_bound(q.begin(), q.end(), e.begin,
                                       [&spans](sim::SimTime x, std::uint32_t i) {
                                         return x < spans[i].begin;
                                       });
      if (qi != q.begin() && spans[*(qi - 1)].begin == e.begin) {
        q_end = std::min(spans[*(qi - 1)].end, t_eff);
      }
      charge(rank, e.begin, q_end, Category::StorageQueue);
      charge(rank, q_end, t_eff, Category::StorageService);
      t = e.begin;
      continue;
    }

    // MPI interval. The op finished at t_eff; find the message whose arrival
    // released it: the latest inbound flow with recv in (e.begin, t_eff].
    // Ties (same recv): largest send_time (the tightest causal constraint),
    // then smallest src — a total order, so the jump is deterministic.
    const auto& in = inbound[static_cast<std::size_t>(rank)];
    const Flow* f = nullptr;
    auto fi = std::upper_bound(in.begin(), in.end(), t_eff, [&flows](sim::SimTime x, std::uint32_t i) {
      return x < flows[i].recv;
    });
    while (fi != in.begin()) {
      const Flow& c = flows[*--fi];
      if (c.recv <= e.begin) break;
      if (f == nullptr || c.recv == f->recv) {
        // Equal recv keys are adjacent after the sort; the last one in sort
        // order (largest send, then... we want largest send / smallest src):
        if (f == nullptr || std::tie(c.send, f->src) > std::tie(f->send, c.src)) f = &c;
        continue;
      }
      break;
    }
    const CallKind call = call_of(e.category);
    const Category wait_cat =
        call == CallKind::Barrier ? Category::BarrierLookahead : Category::MpiWait;
    if (f != nullptr && f->send < t) {
      // [recv, t_eff]: local completion overhead after arrival;
      // [send, recv]: the wire — fabric serialization + routing, charged to
      // the receiving rank's row. Then the path jumps to the sender.
      charge(rank, f->recv, t_eff, wait_cat);
      charge(rank, f->send, f->recv, Category::FabricSerialization);
      Edge& ed = edge_map[{f->src, f->dst}];
      ed.src_rank = f->src;
      ed.dst_rank = f->dst;
      ed.crossings += 1;
      ed.bytes += f->bytes;
      ed.flight += f->recv - f->send;
      rank = f->src;
      t = f->send;
      continue;
    }
    // No causal in-edge: the whole clipped interval is local to this rank.
    // Barriers spin in lookahead-bounded sync, recv-like calls wait, and
    // send-side calls serialize into the fabric.
    Category cat = wait_cat;
    if (call != CallKind::Barrier && !is_recv_like(call)) {
      cat = Category::FabricSerialization;
    }
    charge(rank, e.begin, t_eff, cat);
    t = e.begin;
  }
  if (t > t0) charge(rank, t0, t, Category::Other);  // guard tripped

  blame.edges.reserve(edge_map.size());
  for (const auto& [key, ed] : edge_map) blame.edges.push_back(ed);
  std::sort(blame.edges.begin(), blame.edges.end(), [](const Edge& a, const Edge& b) {
    return std::tie(b.flight, a.src_rank, a.dst_rank) < std::tie(a.flight, b.src_rank, b.dst_rank);
  });
  return blame;
}

}  // namespace cirrus::obs::critpath
