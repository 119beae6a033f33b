#include "obs/json_writer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/metrics.hpp"

namespace cirrus::obs::jsonw {

namespace {

bool needs_escape(char c) noexcept {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

}  // namespace

void append_escaped(std::string& out, std::string_view s) {
  // The clean prefix — the whole string, for every key and name the toolkit
  // emits — goes over in one append; only the rest is walked.
  const auto first = std::find_if(s.begin(), s.end(), needs_escape);
  out.append(s.begin(), first);
  for (auto it = first; it != s.end(); ++it) {
    const char c = *it;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
  return out;
}

std::string quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  append_escaped(out, s);
  out += '"';
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  return format_double(v);
}

Writer& Writer::key(std::string_view k) {
  comma_if_needed();
  out_ += '"';
  append_escaped(out_, k);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

Writer& Writer::value(std::string_view s) {
  comma_if_needed();
  out_ += '"';
  append_escaped(out_, s);
  out_ += '"';
  return mark_value();
}

Writer& Writer::raw(std::string_view json) {
  comma_if_needed();
  out_ += json;
  return mark_value();
}

Writer& Writer::open(char c) {
  comma_if_needed();
  out_ += c;
  need_comma_.push_back(false);
  return *this;
}

Writer& Writer::close(char c) {
  out_ += c;
  if (!need_comma_.empty()) need_comma_.pop_back();
  if (!need_comma_.empty()) need_comma_.back() = true;
  return *this;
}

Writer& Writer::mark_value() {
  if (!need_comma_.empty()) need_comma_.back() = true;
  return *this;
}

void Writer::comma_if_needed() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!need_comma_.empty() && need_comma_.back()) out_ += ',';
}

}  // namespace cirrus::obs::jsonw
