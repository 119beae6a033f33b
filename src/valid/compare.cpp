#include "valid/compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "valid/paths.hpp"

namespace cirrus::valid {

namespace {

[[noreturn]] void parse_fail(const std::string& origin, int line, const std::string& what) {
  throw std::runtime_error(origin + ":" + std::to_string(line) + ": " + what);
}

double parse_double(const std::string& tok, const std::string& origin, int line) {
  std::size_t used = 0;
  double v = 0;
  try {
    v = std::stod(tok, &used);
  } catch (const std::exception&) {
    parse_fail(origin, line, "expected a number, got '" + tok + "'");
  }
  if (used != tok.size()) parse_fail(origin, line, "trailing junk in number '" + tok + "'");
  return v;
}

int parse_int(const std::string& tok, const std::string& origin, int line) {
  const double v = parse_double(tok, origin, line);
  const int i = static_cast<int>(v);
  if (static_cast<double>(i) != v) parse_fail(origin, line, "expected an integer, got '" + tok + "'");
  return i;
}

BoundOp parse_op(const std::string& tok, const std::string& origin, int line) {
  if (tok == "lt") return BoundOp::Lt;
  if (tok == "gt") return BoundOp::Gt;
  if (tok == "le") return BoundOp::Le;
  if (tok == "ge") return BoundOp::Ge;
  parse_fail(origin, line, "unknown bound op '" + tok + "' (want lt|gt|le|ge)");
}

bool bound_holds(BoundOp op, double actual, double bound) noexcept {
  switch (op) {
    case BoundOp::Lt: return actual < bound;
    case BoundOp::Gt: return actual > bound;
    case BoundOp::Le: return actual <= bound;
    case BoundOp::Ge: return actual >= bound;
  }
  return false;
}

/// Finds (name, platform, ranks) across all reports, restricted to `target`.
/// Searches each report's metrics first, then its critpath blame block, so
/// `metric`/`expect`/`order` reference lines address "blame.*" rows with the
/// same grammar as ordinary metrics.
const Metric* find_metric(const std::vector<RunReport>& reports, const std::string& target,
                          const std::string& name, const std::string& platform, int ranks) {
  for (const auto& r : reports) {
    if (r.target != target) continue;
    if (const Metric* m = r.find(name, platform, ranks)) return m;
    for (const auto& m : r.critpath) {
      if (m.ranks == ranks && m.name == name && m.platform == platform) return &m;
    }
  }
  return nullptr;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

}  // namespace

bool Tolerance::within(double expected, double actual) const noexcept {
  const double limit = std::max(abs, rel * std::fabs(expected));
  return std::fabs(actual - expected) <= limit;
}

const char* to_string(BoundOp op) noexcept {
  switch (op) {
    case BoundOp::Lt: return "lt";
    case BoundOp::Gt: return "gt";
    case BoundOp::Le: return "le";
    case BoundOp::Ge: return "ge";
  }
  return "?";
}

const char* to_string(CheckStatus s) noexcept {
  switch (s) {
    case CheckStatus::Pass: return "pass";
    case CheckStatus::Fail: return "FAIL";
    case CheckStatus::Missing: return "MISSING";
  }
  return "?";
}

ReferenceSet ReferenceSet::parse(std::istream& in, const std::string& origin) {
  ReferenceSet out;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (const auto hash = line.find('#'); hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::vector<std::string> tok;
    for (std::string t; ls >> t;) tok.push_back(std::move(t));
    if (tok.empty()) continue;
    const std::string& kind = tok[0];
    if (kind == "metric") {
      if (tok.size() != 8) parse_fail(origin, lineno, "metric wants 7 fields, got " +
                                                          std::to_string(tok.size() - 1));
      RefMetric m;
      m.target = tok[1];
      m.name = tok[2];
      m.platform = tok[3];
      m.ranks = parse_int(tok[4], origin, lineno);
      m.value = parse_double(tok[5], origin, lineno);
      m.tol.rel = parse_double(tok[6], origin, lineno);
      m.tol.abs = parse_double(tok[7], origin, lineno);
      if (m.tol.rel < 0 || m.tol.abs < 0) parse_fail(origin, lineno, "negative tolerance");
      out.metrics.push_back(std::move(m));
    } else if (kind == "expect") {
      if (tok.size() != 7) parse_fail(origin, lineno, "expect wants 6 fields, got " +
                                                          std::to_string(tok.size() - 1));
      RefBound b;
      b.target = tok[1];
      b.name = tok[2];
      b.platform = tok[3];
      b.ranks = parse_int(tok[4], origin, lineno);
      b.op = parse_op(tok[5], origin, lineno);
      b.bound = parse_double(tok[6], origin, lineno);
      out.bounds.push_back(std::move(b));
    } else if (kind == "order") {
      if (tok.size() < 6) parse_fail(origin, lineno, "order wants >= 2 platforms");
      RefOrder o;
      o.target = tok[1];
      o.name = tok[2];
      o.ranks = parse_int(tok[3], origin, lineno);
      o.platforms.assign(tok.begin() + 4, tok.end());
      out.orders.push_back(std::move(o));
    } else {
      parse_fail(origin, lineno, "unknown directive '" + kind + "'");
    }
  }
  return out;
}

ReferenceSet ReferenceSet::parse_string(const std::string& text, const std::string& origin) {
  std::istringstream in(text);
  return parse(in, origin);
}

ReferenceSet ReferenceSet::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open reference file: " + path);
  return parse(in, path);
}

ReferenceSet ReferenceSet::load_default() {
  const std::string dir = reference_dir();
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    // digest.ref is the suite digest (manifest.hpp), not reference pins.
    if (e.path().extension() == ".ref" && e.path().filename() != "digest.ref") {
      files.push_back(e.path().string());
    }
  }
  if (ec || files.empty()) {
    throw std::runtime_error("no *.ref reference files in " + dir +
                             " (set CIRRUS_REFERENCE_DIR or pass --ref)");
  }
  std::sort(files.begin(), files.end());
  ReferenceSet out;
  for (const auto& f : files) out.merge(load(f));
  return out;
}

void ReferenceSet::merge(ReferenceSet other) {
  metrics.insert(metrics.end(), std::make_move_iterator(other.metrics.begin()),
                 std::make_move_iterator(other.metrics.end()));
  bounds.insert(bounds.end(), std::make_move_iterator(other.bounds.begin()),
                std::make_move_iterator(other.bounds.end()));
  orders.insert(orders.end(), std::make_move_iterator(other.orders.begin()),
                std::make_move_iterator(other.orders.end()));
}

std::vector<CheckResult> check(const std::vector<RunReport>& reports, const ReferenceSet& ref) {
  std::vector<CheckResult> out;
  out.reserve(ref.size());

  // Entries for targets that were not run are skipped entirely, so a subset
  // of targets can be checked against the full committed reference set.
  const auto target_ran = [&reports](const std::string& target) {
    return std::any_of(reports.begin(), reports.end(),
                       [&target](const RunReport& r) { return r.target == target; });
  };

  for (const auto& rm : ref.metrics) {
    if (!target_ran(rm.target)) continue;
    CheckResult c;
    c.kind = "metric";
    c.target = rm.target;
    c.name = rm.name;
    c.platform = rm.platform;
    c.ranks = rm.ranks;
    c.expected = rm.value;
    const Metric* m = find_metric(reports, rm.target, rm.name, rm.platform, rm.ranks);
    if (m == nullptr) {
      c.status = CheckStatus::Missing;
      c.detail = "metric not present in any report";
    } else {
      c.actual = m->value;
      c.status = rm.tol.within(rm.value, m->value) ? CheckStatus::Pass : CheckStatus::Fail;
      const double err = rm.value != 0 ? 100.0 * (m->value - rm.value) / std::fabs(rm.value) : 0.0;
      c.detail = "expected " + fmt(rm.value) + " got " + fmt(m->value) + " (" + fmt(err) +
                 "%, tol rel " + fmt(rm.tol.rel) + " abs " + fmt(rm.tol.abs) + ")";
    }
    out.push_back(std::move(c));
  }

  for (const auto& rb : ref.bounds) {
    if (!target_ran(rb.target)) continue;
    CheckResult c;
    c.kind = "expect";
    c.target = rb.target;
    c.name = rb.name;
    c.platform = rb.platform;
    c.ranks = rb.ranks;
    c.expected = rb.bound;
    const Metric* m = find_metric(reports, rb.target, rb.name, rb.platform, rb.ranks);
    if (m == nullptr) {
      c.status = CheckStatus::Missing;
      c.detail = "metric not present in any report";
    } else {
      c.actual = m->value;
      c.status = bound_holds(rb.op, m->value, rb.bound) ? CheckStatus::Pass : CheckStatus::Fail;
      c.detail = fmt(m->value) + std::string(" ") + to_string(rb.op) + " " + fmt(rb.bound);
    }
    out.push_back(std::move(c));
  }

  for (const auto& ro : ref.orders) {
    if (!target_ran(ro.target)) continue;
    CheckResult c;
    c.kind = "order";
    c.target = ro.target;
    c.name = ro.name;
    c.ranks = ro.ranks;
    std::string chain;
    bool missing = false, ok = true;
    double prev = 0;
    for (std::size_t i = 0; i < ro.platforms.size(); ++i) {
      const Metric* m = find_metric(reports, ro.target, ro.name, ro.platforms[i], ro.ranks);
      if (m == nullptr) {
        missing = true;
        chain += (i ? " > " : "") + ro.platforms[i] + "=?";
        continue;
      }
      if (i > 0 && !(prev > m->value)) ok = false;
      prev = m->value;
      chain += (i ? " > " : "") + ro.platforms[i] + "=" + fmt(m->value);
      c.platform += (i ? ">" : "") + ro.platforms[i];
    }
    c.status = missing ? CheckStatus::Missing : (ok ? CheckStatus::Pass : CheckStatus::Fail);
    c.detail = chain;
    out.push_back(std::move(c));
  }
  return out;
}

int failures(const std::vector<CheckResult>& results) {
  return static_cast<int>(std::count_if(results.begin(), results.end(), [](const CheckResult& c) {
    return c.status != CheckStatus::Pass;
  }));
}

std::string render_checks(const std::vector<CheckResult>& results, bool failures_only) {
  std::ostringstream os;
  for (const auto& c : results) {
    if (failures_only && c.status == CheckStatus::Pass) continue;
    os << to_string(c.status) << "  " << c.kind << " " << c.target << "/" << c.name;
    if (!c.platform.empty()) os << "@" << c.platform;
    if (c.ranks != 0) os << "/" << c.ranks;
    os << ": " << c.detail << "\n";
  }
  return os.str();
}

std::string write_reference(const std::vector<RunReport>& reports, double rel_tol,
                            double abs_tol) {
  std::ostringstream os;
  os << "# Auto-generated by `cirrus_bench --write-ref` — quantitative pins of every\n"
     << "# reported metric. Regenerate wholesale when a model change intentionally\n"
     << "# shifts results; qualitative expect/order checks live in their own file\n"
     << "# and survive regeneration.\n"
     << "# metric <target> <name> <platform> <ranks> <value> <rel_tol> <abs_tol>\n";
  for (const auto& r : reports) {
    if (r.metrics.empty()) continue;
    os << "\n# --- " << r.target << ": " << r.title << "\n";
    for (const auto& m : r.metrics) {
      os << "metric " << r.target << " " << m.name << " "
         << (m.platform.empty() ? "-" : m.platform) << " " << m.ranks << " " << fmt(m.value)
         << " " << fmt(rel_tol) << " " << fmt(abs_tol) << "\n";
    }
  }
  return os.str();
}

std::string write_critpath_reference(const std::vector<RunReport>& reports, double rel_tol,
                                     double abs_tol) {
  std::ostringstream os;
  os << "# Auto-generated by `cirrus_bench --write-ref` — quantitative pins of every\n"
     << "# critical-path blame fraction (obs::critpath). Regenerate wholesale when a\n"
     << "# model change intentionally shifts the blame split; the qualitative\n"
     << "# expect checks (e.g. \"CG@64 on DCC blames fabric over compute\") are\n"
     << "# curated by hand below the marker line and survive regeneration.\n"
     << "# metric <target> <name> <platform> <ranks> <value> <rel_tol> <abs_tol>\n";
  for (const auto& r : reports) {
    if (r.critpath.empty()) continue;
    os << "\n# --- " << r.target << ": " << r.title << "\n";
    for (const auto& m : r.critpath) {
      os << "metric " << r.target << " " << m.name << " "
         << (m.platform.empty() ? "-" : m.platform) << " " << m.ranks << " " << fmt(m.value)
         << " " << fmt(rel_tol) << " " << fmt(abs_tol) << "\n";
    }
  }
  return os.str();
}

}  // namespace cirrus::valid
