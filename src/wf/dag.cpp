#include "wf/dag.hpp"

#include <cctype>
#include <cstdio>
#include <stdexcept>

#include "sim/rng.hpp"

namespace cirrus::wf {

namespace {

std::string lower(std::string s) {
  for (auto& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// Incremental DAG builder: tasks appended in stage order are automatically
/// in topological order (deps must already exist).
class Builder {
 public:
  Builder(const GenOptions& opts, std::string shape_tag)
      : rng_(sim::Rng(opts.seed).fork(0xDA6)) {
    dag_.shape = opts.shape;
    dag_.name = std::move(shape_tag);
  }

  /// Adds a task. Nominal compute/bytes jitter by ±15% via a stream forked
  /// from the task's own id, so the result is independent of build order.
  int add(const std::string& base, int stage, double ref_s, double out_bytes,
          double ext_in_bytes, std::vector<int> deps) {
    const int id = static_cast<int>(dag_.tasks.size());
    sim::Rng r = rng_.fork(static_cast<std::uint64_t>(id));
    const double jc = r.uniform(0.85, 1.15);
    const double jd = r.uniform(0.85, 1.15);
    Task t;
    t.id = id;
    t.name = base + "_" + std::to_string(id);
    t.stage = stage;
    t.ref_seconds = ref_s * jc;
    t.out_bytes = static_cast<std::size_t>(out_bytes * jd);
    t.ext_in_bytes = static_cast<std::size_t>(ext_in_bytes * jd);
    for (const int d : deps) {
      if (d < 0 || d >= id) throw std::logic_error("wf::generate: bad dependency");
    }
    t.deps = std::move(deps);
    dag_.tasks.push_back(std::move(t));
    return id;
  }

  Dag finish() {
    dag_.succs.assign(dag_.tasks.size(), {});
    for (const Task& t : dag_.tasks) {
      for (const int d : t.deps) dag_.succs[static_cast<std::size_t>(d)].push_back(t.id);
    }
    return std::move(dag_);
  }

 private:
  Dag dag_;
  sim::Rng rng_;
};

constexpr double MB = 1e6;

/// Montage mosaic: W projections fan out, difference/fit stages contract,
/// a CPU-only background model broadcasts back out, and mAdd gathers every
/// corrected tile into one large mosaic. Dominated by file traffic.
Dag gen_montage(const GenOptions& opts, int w) {
  Builder b(opts, "montage-" + std::to_string(w));
  std::vector<int> project(static_cast<std::size_t>(w));
  for (int i = 0; i < w; ++i) {
    project[static_cast<std::size_t>(i)] = b.add("mProject", 0, 1.2, 8 * MB, 8 * MB, {});
  }
  std::vector<int> fits;
  for (int i = 0; i + 1 < w; ++i) {
    fits.push_back(b.add("mDiffFit", 1, 0.15, 0.3 * MB, 0,
                         {project[static_cast<std::size_t>(i)],
                          project[static_cast<std::size_t>(i + 1)]}));
  }
  const int concat = b.add("mConcatFit", 2, 0.4, 0.1 * MB, 0, fits);
  const int bg_model = b.add("mBgModel", 3, 3.0, 0.1 * MB, 0, {concat});
  std::vector<int> corrected(static_cast<std::size_t>(w));
  for (int i = 0; i < w; ++i) {
    corrected[static_cast<std::size_t>(i)] =
        b.add("mBackground", 4, 0.2, 8 * MB, 0, {project[static_cast<std::size_t>(i)], bg_model});
  }
  const int mosaic = b.add("mAdd", 5, 1.8, 40 * MB, 0, corrected);
  b.add("mShrink", 6, 0.6, 2 * MB, 0, {mosaic});
  return b.finish();
}

/// Epigenomics: one split feeds W independent four-stage CPU-heavy
/// pipelines (the map step dominates), then merge/index/pileup contract.
Dag gen_epigenomics(const GenOptions& opts, int w) {
  Builder b(opts, "epigenomics-" + std::to_string(w));
  const double chunk = 200 * MB / w;
  const int split = b.add("fastqSplit", 0, 1.0, chunk, 200 * MB, {});
  std::vector<int> maps;
  for (int i = 0; i < w; ++i) {
    const int filter = b.add("filterContams", 1, 2.5, chunk, 0, {split});
    const int sanger = b.add("sol2sanger", 2, 1.5, chunk, 0, {filter});
    const int bfq = b.add("fastq2bfq", 3, 1.2, 0.4 * chunk, 0, {sanger});
    maps.push_back(b.add("map", 4, 12.0, 0.25 * chunk, 0, {bfq}));
  }
  const int merge = b.add("mapMerge", 5, 2.0, 0.25 * chunk * w, 0, maps);
  const int index = b.add("maqIndex", 6, 1.5, 0.075 * chunk * w, 0, {merge});
  b.add("pileup", 7, 4.0, 0.04 * chunk * w, 0, {index});
  return b.finish();
}

/// Broadband: W sites each run an independent three-stage chain of mixed
/// compute/IO weight, then peak values and the final plot contract.
Dag gen_broadband(const GenOptions& opts, int w) {
  Builder b(opts, "broadband-" + std::to_string(w));
  std::vector<int> synths;
  for (int i = 0; i < w; ++i) {
    const int pre = b.add("preSGT", 0, 2.0, 10 * MB, 30 * MB, {});
    const int sgt = b.add("sgtGen", 1, 8.0, 25 * MB, 0, {pre});
    synths.push_back(b.add("seisSynth", 2, 3.0, 5 * MB, 0, {sgt}));
  }
  const int peaks = b.add("peakVal", 3, 1.0, 1 * MB, 0, synths);
  b.add("plot", 4, 0.5, 4 * MB, 0, {peaks});
  return b.finish();
}

/// Diamond: src -> W mids -> sink. Small and fully regular; used by unit
/// tests and as the minimal scheduling example.
Dag gen_diamond(const GenOptions& opts, int w) {
  Builder b(opts, "diamond-" + std::to_string(w));
  const int src = b.add("src", 0, 0.5, 4 * MB, 4 * MB, {});
  std::vector<int> mids;
  for (int i = 0; i < w; ++i) mids.push_back(b.add("mid", 1, 1.0, 2 * MB, 0, {src}));
  b.add("sink", 2, 0.5, 1 * MB, 0, mids);
  return b.finish();
}

}  // namespace

Shape shape_from_string(const std::string& s) {
  const std::string v = lower(s);
  if (v == "diamond") return Shape::Diamond;
  if (v == "montage") return Shape::Montage;
  if (v == "epigenomics") return Shape::Epigenomics;
  if (v == "broadband") return Shape::Broadband;
  throw std::invalid_argument(
      "wf shape: diamond|montage|epigenomics|broadband expected, got '" + s + "'");
}

const char* to_string(Shape s) noexcept {
  switch (s) {
    case Shape::Diamond:
      return "diamond";
    case Shape::Montage:
      return "montage";
    case Shape::Epigenomics:
      return "epigenomics";
    case Shape::Broadband:
      return "broadband";
  }
  return "?";
}

double Dag::total_ref_seconds() const {
  double s = 0;
  for (const Task& t : tasks) s += t.ref_seconds;
  return s;
}

std::size_t Dag::total_bytes() const {
  std::size_t b = 0;
  for (const Task& t : tasks) {
    b += t.ext_in_bytes + t.out_bytes;
    for (const int d : t.deps) b += tasks[static_cast<std::size_t>(d)].out_bytes;
  }
  return b;
}

Dag generate(const GenOptions& opts) {
  if (opts.width < 0) throw std::invalid_argument("wf width: must be >= 0");
  switch (opts.shape) {
    case Shape::Montage:
      return gen_montage(opts, opts.width > 0 ? opts.width : 16);
    case Shape::Epigenomics:
      return gen_epigenomics(opts, opts.width > 0 ? opts.width : 8);
    case Shape::Broadband:
      return gen_broadband(opts, opts.width > 0 ? opts.width : 8);
    case Shape::Diamond:
      return gen_diamond(opts, opts.width > 0 ? opts.width : 8);
  }
  throw std::invalid_argument("wf shape: unknown");
}

std::string describe(const Dag& dag) {
  int stages = 0;
  std::size_t edges = 0;
  for (const Task& t : dag.tasks) {
    stages = std::max(stages, t.stage + 1);
    edges += t.deps.size();
  }
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s: %d tasks / %d stages / %zu edges / %.1f ref-s / %.1f MB",
                dag.name.c_str(), dag.n_tasks(), stages, edges, dag.total_ref_seconds(),
                static_cast<double>(dag.total_bytes()) / 1e6);
  return buf;
}

std::string dump(const Dag& dag) {
  std::string out = describe(dag);
  out += '\n';
  char buf[256];
  for (const Task& t : dag.tasks) {
    std::snprintf(buf, sizeof buf, "%4d %-20s stage=%d ref=%.6f out=%zu ext=%zu deps=", t.id,
                  t.name.c_str(), t.stage, t.ref_seconds, t.out_bytes, t.ext_in_bytes);
    out += buf;
    for (std::size_t i = 0; i < t.deps.size(); ++i) {
      out += (i != 0U ? "," : "") + std::to_string(t.deps[i]);
    }
    out += '\n';
  }
  return out;
}

}  // namespace cirrus::wf
