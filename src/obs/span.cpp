#include "obs/span.hpp"

#include <algorithm>
#include <ostream>

#include "obs/json_writer.hpp"

namespace cirrus::obs {

std::vector<Span> SpanSet::for_track(int track) const {
  std::vector<Span> out;
  for (const Span& s : spans_) {
    if (s.track == track) out.push_back(s);
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) { return a.id < b.id; });
  return out;
}

void SpanSet::write_chrome_events(std::ostream& os, bool& first) const {
  for (const Span& s : spans_) {
    if (!first) os << ",\n";
    first = false;
    std::string name(s.category);
    if (!s.label.empty()) {
      name += ' ';
      name += s.label;
    }
    os << "{\"name\":" << jsonw::quote(name) << ",\"cat\":\"span\",\"ph\":\"X\",\"ts\":"
       << jsonw::number(sim::to_micros(s.begin))
       << ",\"dur\":" << jsonw::number(sim::to_micros(s.end - s.begin))
       << ",\"pid\":1,\"tid\":" << s.track << ",\"args\":{\"id\":" << s.id
       << ",\"parent\":" << s.parent << "}}";
  }
}

std::uint32_t SpanRecorder::begin(sim::SimTime t, std::string_view category, std::string label) {
  if (set_ == nullptr) return 0;
  Span s;
  s.id = ++seq_;
  s.parent = stack_.empty() ? 0 : stack_.back().id;
  s.track = track_;
  s.begin = t;
  s.end = t;
  s.category.assign(category);
  s.label = std::move(label);
  stack_.push_back(Open{s.id, set_->spans_.size()});
  set_->spans_.push_back(std::move(s));
  return stack_.back().id;
}

void SpanRecorder::end(std::uint32_t id, sim::SimTime t) {
  if (set_ == nullptr || id == 0) return;
  // LIFO close: pop (and close at `t`) everything above `id`, then `id`.
  bool found = false;
  for (const Open& o : stack_) {
    if (o.id == id) {
      found = true;
      break;
    }
  }
  if (!found) return;
  while (!stack_.empty()) {
    const Open o = stack_.back();
    stack_.pop_back();
    Span& s = set_->spans_[o.index];
    if (t > s.end) s.end = t;
    if (o.id == id) break;
  }
}

std::uint32_t SpanRecorder::record(sim::SimTime b, sim::SimTime e, std::string_view category,
                                   std::string label) {
  if (set_ == nullptr) return 0;
  Span s;
  s.id = ++seq_;
  s.parent = stack_.empty() ? 0 : stack_.back().id;
  s.track = track_;
  s.begin = b;
  s.end = e;
  s.category.assign(category);
  s.label = std::move(label);
  set_->spans_.push_back(std::move(s));
  return set_->spans_.back().id;
}

}  // namespace cirrus::obs
