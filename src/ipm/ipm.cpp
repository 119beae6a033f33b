#include "ipm/ipm.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

namespace cirrus::ipm {

const char* to_string(CallKind k) noexcept {
  switch (k) {
    case CallKind::Send: return "MPI_Send";
    case CallKind::Recv: return "MPI_Recv";
    case CallKind::Isend: return "MPI_Isend";
    case CallKind::Irecv: return "MPI_Irecv";
    case CallKind::Wait: return "MPI_Wait";
    case CallKind::Sendrecv: return "MPI_Sendrecv";
    case CallKind::Barrier: return "MPI_Barrier";
    case CallKind::Bcast: return "MPI_Bcast";
    case CallKind::Allreduce: return "MPI_Allreduce";
    case CallKind::Scatter: return "MPI_Scatter";
    case CallKind::Allgather: return "MPI_Allgather";
    case CallKind::Alltoall: return "MPI_Alltoall";
    case CallKind::Alltoallv: return "MPI_Alltoallv";
    case CallKind::Split: return "MPI_Comm_split";
    case CallKind::kCount: break;
  }
  return "MPI_?";
}

int size_bucket(std::size_t bytes) noexcept {
  if (bytes == 0) return 0;
  const int b = std::bit_width(bytes) - 1;  // floor(log2)
  return std::min(b, kNumSizeBuckets - 1);
}

int RankRecorder::push_section(const std::string& name) {
  for (std::size_t i = 0; i < section_names_.size(); ++i) {
    if (section_names_[i] == name) {
      stack_.push_back(static_cast<int>(i));
      return static_cast<int>(i);
    }
  }
  section_names_.push_back(name);
  sections_.emplace_back();
  stack_.push_back(static_cast<int>(sections_.size()) - 1);
  return stack_.back();
}

void RankRecorder::pop_section() {
  assert(!stack_.empty() && "pop_section without matching push");
  stack_.pop_back();
}

SectionStats& RankRecorder::current() {
  if (stack_.empty()) {
    // Root pseudo-section keeps untagged time visible. It is put at index 0
    // on first use, unless a user section of that name already sits there;
    // either way index 0 is "(root)" from then on.
    if (!root_at_front_) {
      if (section_names_.empty() || section_names_[0] != "(root)") {
        section_names_.insert(section_names_.begin(), "(root)");
        sections_.insert(sections_.begin(), SectionStats{});
      }
      root_at_front_ = true;
    }
    return sections_[0];
  }
  return sections_[static_cast<std::size_t>(stack_.back())];
}

void RankRecorder::add_compute(sim::SimTime dur) {
  if (dur <= 0) return;
  totals_.comp += dur;
  current().comp += dur;
}

void RankRecorder::add_io(sim::SimTime dur) {
  if (dur <= 0) return;
  totals_.io += dur;
  current().io += dur;
}

void RankRecorder::add_mpi(CallKind kind, std::size_t bytes, sim::SimTime dur,
                           double sys_frac) {
  sys_frac = std::clamp(sys_frac, 0.0, 1.0);
  const auto sys = static_cast<sim::SimTime>(static_cast<double>(dur) * sys_frac);
  const sim::SimTime user = dur - sys;
  totals_.comm_user += user;
  totals_.comm_sys += sys;
  ++totals_.mpi_calls;
  auto& sec = current();
  sec.comm_user += user;
  sec.comm_sys += sys;
  ++sec.mpi_calls;
  auto& bc = by_call_[static_cast<std::size_t>(kind)];
  ++bc.count;
  bc.bytes += bytes;
  bc.time += dur;
  auto& h = hist_[static_cast<std::size_t>(kind)][static_cast<std::size_t>(size_bucket(bytes))];
  ++h.count;
  h.bytes += bytes;
  h.time += dur;
}

SectionStats RankRecorder::section(const std::string& name) const {
  for (std::size_t i = 0; i < section_names_.size(); ++i) {
    if (section_names_[i] == name) return sections_[i];
  }
  return SectionStats{};
}

JobReport::JobReport(std::vector<RankRecorder> recorders) : recorders_(std::move(recorders)) {
  sim::SimTime w = 0;
  for (const auto& r : recorders_) w = std::max(w, r.wall());
  wall_s_ = sim::to_seconds(w);
}

AggregateStats JobReport::aggregate() const {
  AggregateStats a;
  a.nranks = nranks();
  a.wall_s = wall_s_;
  if (recorders_.empty()) return a;
  double comp_io_max = 0, comp_io_sum = 0;
  for (const auto& r : recorders_) {
    const auto& t = r.totals();
    a.comp_s += sim::to_seconds(t.comp);
    a.comm_user_s += sim::to_seconds(t.comm_user);
    a.comm_sys_s += sim::to_seconds(t.comm_sys);
    const double io = sim::to_seconds(t.io);
    a.io_s += io;
    a.io_max_s = std::max(a.io_max_s, io);
    a.mpi_calls += t.mpi_calls;
    for (const auto& c : r.by_call()) a.mpi_bytes += c.bytes;
    const double ci = sim::to_seconds(t.comp + t.io);
    comp_io_sum += ci;
    comp_io_max = std::max(comp_io_max, ci);
  }
  const auto n = static_cast<double>(recorders_.size());
  a.comp_s /= n;
  a.comm_user_s /= n;
  a.comm_sys_s /= n;
  a.io_s /= n;
  a.comm_s = a.comm_user_s + a.comm_sys_s;
  if (wall_s_ > 0) {
    a.comm_pct = 100.0 * a.comm_s / wall_s_;
    a.imbalance_pct = 100.0 * (comp_io_max - comp_io_sum / n) / wall_s_;
  }
  return a;
}

double JobReport::comm_pct() const {
  if (recorders_.empty() || wall_s_ <= 0) return 0.0;
  double comm = 0;
  for (const auto& r : recorders_) comm += sim::to_seconds(r.totals().comm());
  return 100.0 * comm / (wall_s_ * static_cast<double>(recorders_.size()));
}

double JobReport::imbalance_pct() const {
  if (recorders_.empty() || wall_s_ <= 0) return 0.0;
  double sum = 0, mx = 0;
  for (const auto& r : recorders_) {
    const double c = sim::to_seconds(r.totals().comp + r.totals().io);
    sum += c;
    mx = std::max(mx, c);
  }
  const double mean = sum / static_cast<double>(recorders_.size());
  return 100.0 * (mx - mean) / wall_s_;
}

double JobReport::comp_seconds() const {
  double s = 0;
  for (const auto& r : recorders_) s += sim::to_seconds(r.totals().comp);
  return recorders_.empty() ? 0.0 : s / static_cast<double>(recorders_.size());
}

double JobReport::comm_seconds() const {
  double s = 0;
  for (const auto& r : recorders_) s += sim::to_seconds(r.totals().comm());
  return recorders_.empty() ? 0.0 : s / static_cast<double>(recorders_.size());
}

double JobReport::io_seconds() const {
  double s = 0;
  for (const auto& r : recorders_) s += sim::to_seconds(r.totals().io);
  return recorders_.empty() ? 0.0 : s / static_cast<double>(recorders_.size());
}

double JobReport::section_comp_seconds(const std::string& name) const {
  double s = 0;
  for (const auto& r : recorders_) s += sim::to_seconds(r.section(name).comp);
  return recorders_.empty() ? 0.0 : s / static_cast<double>(recorders_.size());
}

double JobReport::section_comm_seconds(const std::string& name) const {
  double s = 0;
  for (const auto& r : recorders_) s += sim::to_seconds(r.section(name).comm());
  return recorders_.empty() ? 0.0 : s / static_cast<double>(recorders_.size());
}

double JobReport::section_wall_seconds(const std::string& name) const {
  // A section's wall is approximated by the max over ranks of its total time.
  double mx = 0;
  for (const auto& r : recorders_) {
    const auto s = r.section(name);
    mx = std::max(mx, sim::to_seconds(s.comp + s.comm() + s.io));
  }
  return mx;
}

double JobReport::section_comm_pct(const std::string& name) const {
  double comm = 0, all = 0;
  for (const auto& r : recorders_) {
    const auto s = r.section(name);
    comm += sim::to_seconds(s.comm());
    all += sim::to_seconds(s.comp + s.comm() + s.io);
  }
  return all > 0 ? 100.0 * comm / all : 0.0;
}

std::vector<std::string> JobReport::section_names() const {
  std::vector<std::string> names;
  for (const auto& r : recorders_) {
    for (const auto& n : r.section_names()) {
      if (std::find(names.begin(), names.end(), n) == names.end()) names.push_back(n);
    }
  }
  return names;
}

std::vector<RankBreakdown> JobReport::rank_breakdown(const std::string& section) const {
  std::vector<RankBreakdown> rows;
  rows.reserve(recorders_.size());
  for (const auto& r : recorders_) {
    SectionStats s = section.empty() ? r.totals() : r.section(section);
    rows.push_back(RankBreakdown{.rank = r.rank(),
                                 .comp_s = sim::to_seconds(s.comp),
                                 .comm_user_s = sim::to_seconds(s.comm_user),
                                 .comm_sys_s = sim::to_seconds(s.comm_sys),
                                 .io_s = sim::to_seconds(s.io)});
  }
  return rows;
}

CallStats JobReport::histogram(CallKind kind, int bucket) const {
  CallStats out;
  for (const auto& r : recorders_) {
    const auto& h = r.histogram(kind, bucket);
    out.count += h.count;
    out.bytes += h.bytes;
    out.time += h.time;
  }
  return out;
}

std::string JobReport::text_summary(const std::string& job_name) const {
  std::ostringstream os;
  os << "# IPM summary: " << job_name << "\n";
  os << "#   ranks: " << nranks() << "  wall: " << wall_s_ << " s  %comm: " << comm_pct()
     << "  %imbal: " << imbalance_pct() << "\n";
  os << "#   comp: " << comp_seconds() << " s  comm: " << comm_seconds()
     << " s  io: " << io_seconds() << " s (per-rank mean)\n";
  os << "#   sections:\n";
  for (const auto& name : section_names()) {
    os << "#     " << name << ": comp " << section_comp_seconds(name) << " s, comm "
       << section_comm_seconds(name) << " s (" << section_comm_pct(name) << "%comm)\n";
  }
  return os.str();
}

std::string JobReport::call_table_str() const {
  // Aggregate per call kind over all ranks.
  struct Row {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
    sim::SimTime time = 0;
  };
  std::array<Row, kNumCallKinds> rows{};
  sim::SimTime total_time = 0;
  for (const auto& r : recorders_) {
    for (int k = 0; k < kNumCallKinds; ++k) {
      const auto& c = r.by_call()[static_cast<std::size_t>(k)];
      rows[static_cast<std::size_t>(k)].count += c.count;
      rows[static_cast<std::size_t>(k)].bytes += c.bytes;
      rows[static_cast<std::size_t>(k)].time += c.time;
      total_time += c.time;
    }
  }
  std::ostringstream os;
  os << "# call                    count        bytes      time(s)   %MPI\n";
  for (int k = 0; k < kNumCallKinds; ++k) {
    const auto& row = rows[static_cast<std::size_t>(k)];
    if (row.count == 0) continue;
    const double pct =
        total_time > 0 ? 100.0 * static_cast<double>(row.time) / static_cast<double>(total_time)
                       : 0.0;
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%-20s %10llu %12llu %12.3f %6.1f\n",
                  to_string(static_cast<CallKind>(k)),
                  static_cast<unsigned long long>(row.count),
                  static_cast<unsigned long long>(row.bytes), sim::to_seconds(row.time), pct);
    os << buf;
  }
  return os.str();
}

std::string JobReport::rank_breakdown_csv(const std::string& section) const {
  std::ostringstream os;
  os << "rank,comp_s,comm_user_s,comm_sys_s,io_s\n";
  for (const auto& row : rank_breakdown(section)) {
    os << row.rank << ',' << row.comp_s << ',' << row.comm_user_s << ',' << row.comm_sys_s
       << ',' << row.io_s << "\n";
  }
  return os.str();
}

}  // namespace cirrus::ipm
