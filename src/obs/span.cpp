#include "obs/span.hpp"

#include <algorithm>

namespace cirrus::obs {

std::uint32_t SpanSet::Interner::intern(std::string_view s) {
  if (const auto it = ids_.find(s); it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(s);
  ids_.emplace(names_.back(), id);
  return id;
}

std::optional<std::uint32_t> SpanSet::Interner::find(std::string_view s) const {
  if (const auto it = ids_.find(s); it != ids_.end()) return it->second;
  return std::nullopt;
}

SpanSet::SpanSet() {
  categories_.intern("compute");
  categories_.intern("io");
  for (int k = 0; k < ipm::kNumCallKinds; ++k) {
    categories_.intern(ipm::to_string(static_cast<ipm::CallKind>(k)));
  }
  labels_.intern("");
}

std::uint16_t SpanSet::category(std::string_view name) {
  return static_cast<std::uint16_t>(categories_.intern(name));
}

std::uint32_t SpanSet::label(std::string_view name) { return labels_.intern(name); }

std::optional<std::uint16_t> SpanSet::find_category(std::string_view name) const {
  if (const auto id = categories_.find(name)) return static_cast<std::uint16_t>(*id);
  return std::nullopt;
}

std::vector<Span> SpanSet::for_track(int track) const {
  std::vector<Span> out;
  for (const Span& s : spans_) {
    if (s.track == track) out.push_back(s);
  }
  return out;
}

void SpanSet::merge(const SpanSet& other, sim::SimTime offset) {
  // Causal ids continue after the highest id each track already holds
  // (tracks start at -1, the global instant track).
  std::vector<std::uint32_t> base;
  for (const Span& s : spans_) {
    if (s.kind != SpanKind::Causal) continue;
    const auto t = static_cast<std::size_t>(s.track + 1);
    if (t >= base.size()) base.resize(t + 1, 0);
    base[t] = std::max(base[t], s.id);
  }
  std::vector<std::uint16_t> cats(other.categories_.size());
  for (std::size_t i = 0; i < cats.size(); ++i) {
    cats[i] = category(other.categories_.name(static_cast<std::uint32_t>(i)));
  }
  std::vector<std::uint32_t> labels(other.labels_.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = label(other.labels_.name(static_cast<std::uint32_t>(i)));
  }
  spans_.reserve(spans_.size() + other.spans_.size());
  for (Span s : other.spans_) {
    s.begin += offset;
    s.end += offset;
    s.category = cats[s.category];
    s.label = labels[s.label];
    const auto t = static_cast<std::size_t>(s.track + 1);
    if (s.kind == SpanKind::Causal && t < base.size()) {
      s.id += base[t];
      if (s.parent != 0) s.parent += base[t];
    }
    spans_.push_back(s);
  }
  flows_.reserve(flows_.size() + other.flows_.size());
  for (Flow f : other.flows_) {
    f.send += offset;
    f.recv += offset;
    flows_.push_back(f);
  }
}

void SpanRecorder::instant(sim::SimTime t, std::string_view name) {
  if (set_ == nullptr) return;
  set_->spans_.push_back(Span{.begin = t, .end = t, .track = track_,
                              .label = set_->label(name), .kind = SpanKind::Instant});
}

std::uint32_t SpanRecorder::push_causal(sim::SimTime b, sim::SimTime e,
                                        std::string_view category, std::string_view label) {
  set_->spans_.push_back(Span{.begin = b,
                              .end = e,
                              .track = track_,
                              .id = ++seq_,
                              .parent = stack_.empty() ? 0 : stack_.back().id,
                              .label = set_->label(label),
                              .category = set_->category(category),
                              .kind = SpanKind::Causal});
  return seq_;
}

std::uint32_t SpanRecorder::begin(sim::SimTime t, std::string_view category,
                                  std::string_view label) {
  if (set_ == nullptr) return 0;
  const std::uint32_t id = push_causal(t, t, category, label);
  stack_.push_back(Open{id, set_->spans_.size() - 1});
  return id;
}

void SpanRecorder::end(std::uint32_t id, sim::SimTime t) {
  if (set_ == nullptr || id == 0) return;
  // LIFO close: pop (and close at `t`) everything above `id`, then `id`.
  const bool found =
      std::any_of(stack_.begin(), stack_.end(), [id](const Open& o) { return o.id == id; });
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
                                   std::string_view label) {
  if (set_ == nullptr) return 0;
  return push_causal(b, e, category, label);
}

}  // namespace cirrus::obs
