// Small helpers shared by the benchmark program: wall clocks, percentiles,
// process memory readings, the metric sink the result line is built from,
// the benchmark's own span log, and counter snapshots.
#pragma once

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/telemetry.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto n = v.size();
  auto rank = static_cast<std::size_t>(q * static_cast<double>(n) + 0.999999999);
  rank = std::clamp<std::size_t>(rank, 1, n);
  return v[rank - 1];
}

inline double median(const std::vector<double>& v) {
  if (v.empty()) return 0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const auto n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

/// Median over `windows` consecutive equal slices of `in_order` of each
/// slice's percentile q: one burst moves one slice, not the figure.
inline double windowed_percentile(const std::vector<double>& in_order, std::size_t windows,
                                  double q) {
  std::vector<double> per;
  const std::size_t n = in_order.size();
  for (std::size_t w = 0; w < windows; ++w) {
    const auto b = in_order.begin() + static_cast<std::ptrdiff_t>(n * w / windows);
    const auto e = in_order.begin() + static_cast<std::ptrdiff_t>(n * (w + 1) / windows);
    if (b != e) per.push_back(percentile({b, e}, q));
  }
  return median(per);
}

/// A field of /proc/self/status in kB (VmHWM, VmRSS), 0 if unreadable.
inline double proc_status_kb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr);
    }
  }
  return 0;
}

inline double peak_rss_mb() { return proc_status_kb("VmHWM") / 1024.0; }

/// Bytes the allocator currently has handed out (all arenas, mmapped
/// blocks included): the exact cost of holding a data structure.
inline double heap_in_use_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks) + static_cast<double>(mi.hblkhd);
}

/// Named metric values in insertion order, each with its unit.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    items_.push_back({name, value, unit});
  }
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  [[nodiscard]] const std::vector<Item>& items() const { return items_; }

 private:
  std::vector<Item> items_;
};

/// The benchmark's own spans: one per call into a layer, with its parent.
/// Self time of a span name = total duration minus the part covered by its
/// direct children.
class SpanLog {
 public:
  int open(const std::string& name, int parent) {
    spans_.push_back({name, parent, Clock::now(), {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end = Clock::now(); }

  /// Self seconds per span name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    std::map<std::string, double> self;
    for (const auto& s : spans_) self[s.name] += dur(s);
    for (const auto& s : spans_) {
      if (s.parent >= 0) self[spans_[static_cast<std::size_t>(s.parent)].name] -= dur(s);
    }
    return self;
  }

 private:
  struct Span {
    std::string name;
    int parent;
    Clock::time_point begin, end;
  };
  static double dur(const Span& s) { return std::chrono::duration<double>(s.end - s.begin).count(); }
  std::vector<Span> spans_;
};

/// RAII span; a null log makes it inert (untraced runs record nothing).
class Scoped {
 public:
  Scoped(SpanLog* log, const std::string& name, int parent = -1)
      : log_(log), id_(log != nullptr ? log->open(name, parent) : -1) {}
  ~Scoped() {
    if (log_ != nullptr) log_->close(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

/// GlobalCounters delta `after - before` for one series (0 if absent).
inline std::uint64_t counter_delta(const std::map<std::string, std::uint64_t>& before,
                                   const std::map<std::string, std::uint64_t>& after,
                                   const std::string& name) {
  const auto a = after.find(name);
  if (a == after.end()) return 0;
  const auto b = before.find(name);
  return a->second - (b == before.end() ? 0 : b->second);
}

/// The per-layer counts harvested around calls into the simulator.
struct LayerCounts {
  std::uint64_t events = 0, callback_events = 0, fiber_switches = 0, heap_depth_hwm = 0;
  std::uint64_t sends_eager = 0, sends_rendezvous = 0, unexpected_matches = 0;
  std::uint64_t internode_transfers = 0, control_messages = 0, routed_hops = 0;
  std::uint64_t storage_ops = 0, storage_bytes = 0;

  /// Adds the GlobalCounters delta of one `serve::execute` call.
  void add_global(const std::map<std::string, std::uint64_t>& before,
                  const std::map<std::string, std::uint64_t>& after) {
    const auto d = [&](const char* n) { return counter_delta(before, after, n); };
    events += d("sim_events_total");
    callback_events += d("sim_events_callback");
    sends_eager += d("mpi_sends_eager");
    sends_rendezvous += d("mpi_sends_rendezvous");
    unexpected_matches += d("mpi_recvs_matched_unexpected");
    internode_transfers += d("net_transfers_internode");
    control_messages += d("net_control_messages");
    routed_hops += d("net_routed_hops");
    storage_ops += d("storage_reads") + d("storage_writes");
    storage_bytes += d("storage_bytes_read") + d("storage_bytes_written");
  }
};

inline std::map<std::string, std::uint64_t> global_snapshot() {
  return cirrus::obs::GlobalCounters::instance().snapshot();
}

/// splitmix64: seeded, platform-independent stream for schedules and shuffles.
struct SplitMix {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t x = (s += 0x9e3779b97f4a7c15ULL);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }
  /// Uniform in (0, 1].
  double uniform() { return (static_cast<double>(next() >> 11) + 1.0) / 9007199254740992.0; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[next() % i]);
  }
};

}  // namespace perfbench
