#include "obs/metrics.hpp"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace cirrus::obs {

int hist_bucket(std::uint64_t value) noexcept {
  if (value < 2) return 0;
  int b = 63 - __builtin_clzll(value);  // floor(log2(value))
  return b < kNumHistBuckets ? b : kNumHistBuckets - 1;
}

std::uint64_t hist_bucket_upper(int bucket) noexcept {
  if (bucket >= 63) return ~0ULL;
  return (2ULL << bucket) - 1;
}

namespace {

void canonicalise(std::vector<Label>& labels) {
  std::sort(labels.begin(), labels.end(), [](const Label& a, const Label& b) {
    return a.key < b.key;
  });
  for (std::size_t i = 1; i < labels.size(); ++i) {
    if (labels[i - 1].key == labels[i].key) {
      throw std::logic_error("obs: duplicate label key '" + labels[i].key + "'");
    }
  }
}

// Prometheus label-value escaping: backslash, double quote, newline.
std::string escape_label(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

const char* kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
  }
  return "untyped";
}

}  // namespace

// Shortest round-trip double formatting (same policy as valid::json_number).
std::string format_double(double v) {
  char buf[64];
  // Integral values below 1e15 (-0.0 aside) print as "%.15g" prints them:
  // plain digits, no exponent, no point. Request keys are mostly these.
  if (std::fabs(v) < 1e15 && v == std::trunc(v) && !(v == 0 && std::signbit(v))) {
    const auto r = std::to_chars(buf, buf + sizeof buf, static_cast<long long>(v));
    return std::string(buf, r.ptr);
  }
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    double back = 0;
    std::sscanf(buf, "%lf", &back);
    if (back == v) break;
  }
  return buf;
}

std::string MetricsRegistry::series_id(const std::string& name,
                                       const std::vector<Label>& labels) {
  if (labels.empty()) return name;
  std::string id = name;
  id += '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i != 0) id += ',';
    id += labels[i].key;
    id += "=\"";
    id += escape_label(labels[i].value);
    id += '"';
  }
  id += '}';
  return id;
}

detail::Cell& MetricsRegistry::cell_for(const std::string& name,
                                        std::vector<Label> labels,
                                        MetricKind kind) {
  canonicalise(labels);
  const std::string id = series_id(name, labels);
  auto it = index_.find(id);
  if (it != index_.end()) {
    if (it->second->kind != kind) {
      throw std::logic_error("obs: metric '" + id + "' already registered as " +
                             kind_name(it->second->kind) + ", requested " +
                             kind_name(kind));
    }
    return *it->second;
  }
  cells_.emplace_back();
  detail::Cell& c = cells_.back();
  c.name = name;
  c.labels = std::move(labels);
  c.kind = kind;
  if (kind == MetricKind::Histogram) {
    c.buckets.assign(static_cast<std::size_t>(kNumHistBuckets), 0);
  }
  index_.emplace(id, &c);
  return c;
}

Counter MetricsRegistry::counter(const std::string& name, std::vector<Label> labels) {
  return Counter(&cell_for(name, std::move(labels), MetricKind::Counter));
}

Histogram MetricsRegistry::histogram(const std::string& name, std::vector<Label> labels) {
  return Histogram(&cell_for(name, std::move(labels), MetricKind::Histogram));
}

void MetricsRegistry::gauge(const std::string& name, std::vector<Label> labels,
                            GaugeFn fn) {
  detail::Cell& c = cell_for(name, std::move(labels), MetricKind::Gauge);
  c.gauge_fn = std::move(fn);
}

void MetricsRegistry::freeze_gauges() {
  for (auto& c : cells_) {
    if (c.kind == MetricKind::Gauge && c.gauge_fn) {
      c.gauge_value = c.gauge_fn();
      c.gauge_fn = nullptr;
    }
  }
}

std::vector<const detail::Cell*> MetricsRegistry::sorted_cells() const {
  std::vector<const detail::Cell*> out;
  out.reserve(index_.size());
  for (const auto& [id, cell] : index_) out.push_back(cell);
  return out;  // std::map iteration is already id-sorted
}

std::string MetricsRegistry::prometheus_text() const {
  std::ostringstream os;
  std::string last_typed;
  for (const detail::Cell* c : sorted_cells()) {
    if (c->name != last_typed) {
      os << "# TYPE " << c->name << ' ' << kind_name(c->kind) << '\n';
      last_typed = c->name;
    }
    if (c->kind == MetricKind::Counter) {
      os << series_id(c->name, c->labels) << ' ' << c->value << '\n';
    } else if (c->kind == MetricKind::Gauge) {
      double v = c->gauge_fn ? c->gauge_fn() : c->gauge_value;
      os << series_id(c->name, c->labels) << ' ' << format_double(v) << '\n';
    } else {
      // Cumulative buckets, skipping the empty tail for readability.
      std::uint64_t cum = 0;
      int top = kNumHistBuckets - 1;
      while (top > 0 && c->buckets[static_cast<std::size_t>(top)] == 0) --top;
      for (int i = 0; i <= top; ++i) {
        cum += c->buckets[static_cast<std::size_t>(i)];
        std::vector<Label> ls = c->labels;
        char le[32];
        std::snprintf(le, sizeof le, "%" PRIu64, hist_bucket_upper(i));
        ls.push_back({"le", le});
        os << series_id(c->name + "_bucket", ls) << ' ' << cum << '\n';
      }
      {
        std::vector<Label> ls = c->labels;
        ls.push_back({"le", "+Inf"});
        os << series_id(c->name + "_bucket", ls) << ' ' << c->hist_count << '\n';
      }
      os << series_id(c->name + "_sum", c->labels) << ' ' << c->hist_sum << '\n';
      os << series_id(c->name + "_count", c->labels) << ' ' << c->hist_count << '\n';
    }
  }
  return os.str();
}

std::vector<std::pair<std::string, std::uint64_t>> MetricsRegistry::counter_values() const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [id, cell] : index_) {
    if (cell->kind == MetricKind::Counter) {
      out.emplace_back(id, cell->value);
    } else if (cell->kind == MetricKind::Histogram) {
      out.emplace_back(id + "_count", cell->hist_count);
      out.emplace_back(id + "_sum", cell->hist_sum);
    }
  }
  return out;
}

}  // namespace cirrus::obs
