// Tolerance comparison of RunReports against committed reference tables.
//
// Reference files (`src/valid/reference/*.ref`) are line-oriented text,
// `#` to end-of-line is a comment, tokens are whitespace-separated:
//
//   metric <target> <name> <platform> <ranks> <value> <rel_tol> <abs_tol>
//   expect <target> <name> <platform> <ranks> lt|gt|le|ge <bound>
//   order  <target> <name> <ranks> <platform> <platform> [<platform>...]
//
// `metric` pins a value quantitatively: the check passes when
// |actual - value| <= max(abs_tol, rel_tol * |value|). `expect` and `order`
// are the qualitative checks ("EC2 CG efficiency collapses past 8 ranks",
// "Vayu > EC2 > DCC bandwidth ordering"): `expect` bounds one value, `order`
// requires strictly decreasing values across the listed platforms at the
// same (name, ranks) point. Entries whose target is absent from the reports
// are skipped (a subset of targets can be checked against the full committed
// set); an entry whose target ran but whose metric is absent fails with
// status Missing.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "valid/report.hpp"

namespace cirrus::valid {

struct Tolerance {
  double rel = 0.05;
  double abs = 0.0;
  /// |actual - expected| <= max(abs, rel * |expected|), boundary inclusive.
  [[nodiscard]] bool within(double expected, double actual) const noexcept;
};

struct RefMetric {
  std::string target, name, platform;
  int ranks = 0;
  double value = 0;
  Tolerance tol;
};

enum class BoundOp { Lt, Gt, Le, Ge };
const char* to_string(BoundOp op) noexcept;

struct RefBound {
  std::string target, name, platform;
  int ranks = 0;
  BoundOp op = BoundOp::Lt;
  double bound = 0;
};

struct RefOrder {
  std::string target, name;
  int ranks = 0;
  std::vector<std::string> platforms;  ///< expected strictly decreasing
};

/// A parsed set of reference entries, possibly merged from several files.
class ReferenceSet {
 public:
  /// Parses reference text; throws std::runtime_error("<origin>:<line>: ...")
  /// on malformed input.
  static ReferenceSet parse(std::istream& in, const std::string& origin = "<memory>");
  static ReferenceSet parse_string(const std::string& text,
                                   const std::string& origin = "<memory>");
  /// Loads one file; throws std::runtime_error if unreadable.
  static ReferenceSet load(const std::string& path);
  /// Loads every `*.ref` file in valid::reference_dir() but digest.ref (the
  /// suite digest), in name order.
  /// Throws if the directory has no reference files at all.
  static ReferenceSet load_default();

  void merge(ReferenceSet other);
  [[nodiscard]] std::size_t size() const noexcept {
    return metrics.size() + bounds.size() + orders.size();
  }

  std::vector<RefMetric> metrics;
  std::vector<RefBound> bounds;
  std::vector<RefOrder> orders;
};

enum class CheckStatus { Pass, Fail, Missing };
const char* to_string(CheckStatus s) noexcept;

/// Outcome of one reference entry checked against the reports.
struct CheckResult {
  std::string kind;  ///< "metric", "expect" or "order"
  std::string target, name, platform;
  int ranks = 0;
  double expected = 0;  ///< reference value / bound (0 for order checks)
  double actual = 0;    ///< measured value (0 when missing)
  CheckStatus status = CheckStatus::Pass;
  std::string detail;  ///< one human-readable line
};

/// Evaluates every reference entry against the reports. Metrics present in
/// the reports but absent from the reference are informational and ignored.
std::vector<CheckResult> check(const std::vector<RunReport>& reports, const ReferenceSet& ref);

/// Number of results whose status is not Pass.
int failures(const std::vector<CheckResult>& results);

/// Renders results as a text table (all of them, or failures only).
std::string render_checks(const std::vector<CheckResult>& results, bool failures_only);

/// Emits `metric` reference lines pinning every metric of every report at the
/// given tolerances — the "update the reference tables" path
/// (`cirrus_bench --write-ref`). Qualitative `expect`/`order` lines are
/// curated by hand in a separate file and are not emitted here.
std::string write_reference(const std::vector<RunReport>& reports, double rel_tol = 0.05,
                            double abs_tol = 1e-6);

/// Same, but over the reports' critical-path blame blocks (`critpath.ref`).
/// Fractions get a wider default abs_tol: a 0.5 % absolute shift in a blame
/// share is noise, not a model change.
std::string write_critpath_reference(const std::vector<RunReport>& reports,
                                     double rel_tol = 0.05, double abs_tol = 0.005);

}  // namespace cirrus::valid
