// Deterministic JSON *writer*, the emission-side twin of jsonlite (the
// parser next door). One escaping policy and one number policy for every
// JSON artifact the toolkit produces — manifests, serve responses, bench
// outputs — so all of them pass jsonlite::validate and `python3 -m
// json.tool` and stay byte-stable across platforms:
//
//  * strings: RFC 8259 escapes for `"`, `\`, \n, \t, \r; all other control
//    characters as \u00XX;
//  * numbers: the shortest decimal in [15, 17] significant digits that
//    round-trips the double (obs::format_double); non-finite values emit
//    `null` (strict JSON has no NaN/Infinity).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace cirrus::obs::jsonw {

/// Escaped string body, without the surrounding quotes.
std::string escape(std::string_view s);

/// Appends escape(s) to `out` without a temporary.
void append_escaped(std::string& out, std::string_view s);

/// A complete JSON string literal: quotes included, body escaped.
std::string quote(std::string_view s);

/// A JSON number token (or `null` for NaN/Infinity).
std::string number(double v);

/// Incremental builder for objects/arrays with automatic comma placement
/// and insertion-order keys. Purely syntactic — the caller chooses the
/// nesting; no pretty-printing (compact output, deterministic bytes).
class Writer {
 public:
  Writer& begin_object() { return open('{'); }
  Writer& end_object() { return close('}'); }
  Writer& begin_array() { return open('['); }
  Writer& end_array() { return close(']'); }

  /// Object member key; must be followed by exactly one value.
  Writer& key(std::string_view k);

  Writer& value(std::string_view s);
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(double v) { return raw(number(v)); }
  Writer& value(int v) { return raw(std::to_string(v)); }
  Writer& value(long long v) { return raw(std::to_string(v)); }
  Writer& value(unsigned long long v) { return raw(std::to_string(v)); }
  Writer& value(bool b) { return raw(b ? "true" : "false"); }
  Writer& null() { return raw("null"); }
  /// Pre-serialised JSON emitted verbatim (e.g. a cached result blob).
  Writer& raw(std::string_view json);

  /// The document built so far. Valid JSON once every open scope is closed.
  [[nodiscard]] const std::string& str() const noexcept { return out_; }

 private:
  Writer& open(char c);
  Writer& close(char c);
  Writer& mark_value();  // the open scope now needs a comma before its next item
  void comma_if_needed();

  std::string out_;
  std::vector<bool> need_comma_;  // one per open scope
  bool after_key_ = false;
};

}  // namespace cirrus::obs::jsonw
