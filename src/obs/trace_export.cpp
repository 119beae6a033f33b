#include "obs/trace_export.hpp"

#include <charconv>
#include <sstream>
#include <vector>

#include "obs/json_writer.hpp"
#include "obs/metrics.hpp"

namespace cirrus::obs {

namespace {

void comma(std::ostream& os, bool& first) {
  if (!first) os << ",\n";
  first = false;
}

/// A virtual time (or duration) in microseconds at full precision: the
/// bytes of jsonw::number(sim::to_micros(t)). Below 1e15 ns the integer
/// nanoseconds give a decimal of at most 15 significant digits; when it
/// parses back to the same double, it is exactly what number()'s shortest
/// round-trip search would print, so the search is skipped.
std::string micros(sim::SimTime t) {
  const double us = sim::to_micros(t);
  if (t < 0 || t >= 1'000'000'000'000'000) return jsonw::number(us);
  char buf[24];
  char* end = std::to_chars(buf, buf + sizeof buf, t / 1000).ptr;
  if (const auto frac = t % 1000; frac != 0) {
    *end++ = '.';
    for (auto d = frac, scale = sim::SimTime{100}; d != 0; d %= scale, scale /= 10) {
      *end++ = static_cast<char>('0' + d / scale);
    }
  }
  double back = 0;
  std::from_chars(buf, end, back);
  return back == us ? std::string(buf, end) : jsonw::number(us);
}

void write_set(std::ostream& os, bool& first, const SpanSet& set) {
  const auto& spans = set.spans();
  // Thread-name metadata: one named row per rank that has intervals.
  std::vector<char> seen;
  for (const Span& s : spans) {
    if (s.kind != SpanKind::Interval || s.track < 0) continue;
    const auto r = static_cast<std::size_t>(s.track);
    if (r >= seen.size()) seen.resize(r + 1, 0);
    seen[r] = 1;
  }
  for (std::size_t r = 0; r < seen.size(); ++r) {
    if (seen[r] == 0) continue;
    comma(os, first);
    os << R"({"name":"thread_name","ph":"M","pid":0,"tid":)" << r
       << R"(,"args":{"name":"rank )" << r << R"("}})";
  }
  // Category names, quoted once per export instead of once per row.
  std::vector<std::string> names;
  names.reserve(set.category_count());
  for (std::size_t c = 0; c < set.category_count(); ++c) {
    names.push_back(jsonw::quote(set.category_name(static_cast<std::uint16_t>(c))));
  }
  for (const Span& s : spans) {
    if (s.kind != SpanKind::Interval) continue;
    comma(os, first);
    os << R"({"name":)" << names[s.category] << R"(,"ph":"X","pid":0,"tid":)" << s.track
       << R"(,"ts":)" << micros(s.begin) << R"(,"dur":)" << micros(s.end - s.begin)
       << R"(,"args":{"bytes":)" << s.bytes << R"(,"peer":)" << s.peer << "}}";
  }
  // Flow arrows: a "s"tart on the sender's row bound to a "f"inish (bp:"e" —
  // bind to the enclosing slice) on the receiver's row, paired by id.
  const auto& flows = set.flows();
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const Flow& f = flows[i];
    comma(os, first);
    os << R"({"name":"msg","cat":"msg","ph":"s","id":)" << i << R"(,"pid":0,"tid":)" << f.src
       << R"(,"ts":)" << micros(f.send) << R"(,"args":{"bytes":)" << f.bytes << "}}";
    comma(os, first);
    os << R"({"name":"msg","cat":"msg","ph":"f","bp":"e","id":)" << i << R"(,"pid":0,"tid":)"
       << f.dst << R"(,"ts":)" << micros(f.recv) << R"(,"args":{"bytes":)" << f.bytes << "}}";
  }
  // Global instants (track < 0) draw a full-height marker; rank-scoped ones
  // mark a single row.
  for (const Span& s : spans) {
    if (s.kind != SpanKind::Instant) continue;
    comma(os, first);
    os << R"({"name":)" << jsonw::quote(set.label_name(s.label));
    if (s.track < 0) {
      os << R"(,"ph":"i","s":"g","pid":0,"tid":0)";
    } else {
      os << R"(,"ph":"i","s":"t","pid":0,"tid":)" << s.track;
    }
    os << R"(,"ts":)" << micros(s.begin) << "}";
  }
  for (const Span& s : spans) {
    if (s.kind != SpanKind::Causal) continue;
    comma(os, first);
    std::string name = set.category_name(s.category);
    if (s.label != 0) {
      name += ' ';
      name += set.label_name(s.label);
    }
    os << R"({"name":)" << jsonw::quote(name) << R"(,"cat":"span","ph":"X","ts":)"
       << micros(s.begin) << R"(,"dur":)" << micros(s.end - s.begin)
       << R"(,"pid":1,"tid":)" << s.track << R"(,"args":{"id":)" << s.id
       << R"(,"parent":)" << s.parent << "}}";
  }
}

}  // namespace

std::string enriched_chrome_json(const SpanSet* trace, const Sampler* sampler) {
  return enriched_chrome_json(trace, sampler, nullptr, nullptr);
}

std::string enriched_chrome_json(const SpanSet* trace, const Sampler* sampler,
                                 const SpanSet* spans, const SpanSet* sched_spans) {
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const SpanSet* set : {trace, spans, sched_spans}) {
    if (set != nullptr) write_set(os, first, *set);
  }
  if (sampler != nullptr) {
    // One "C" counter track per channel; Perfetto plots each as a stepped
    // area chart above the rank rows.
    const auto& channels = sampler->channels();
    for (std::size_t c = 0; c < channels.size(); ++c) {
      const std::string name = jsonw::quote(channels[c]);
      for (const auto& row : sampler->rows()) {
        comma(os, first);
        os << R"({"name":)" << name << R"(,"ph":"C","pid":0,"ts":)" << micros(row.t)
           << R"(,"args":{"value":)" << format_double(row.values[c]) << "}}";
      }
    }
  }
  os << "]\n";
  return os.str();
}

}  // namespace cirrus::obs
