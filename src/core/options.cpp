#include "core/options.hpp"

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <stdexcept>

namespace cirrus::core {

Options::Options(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const std::string key = arg.substr(2);
      if (key.empty()) throw std::invalid_argument("bare '--' is not a valid option");
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";  // flag
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

std::optional<std::string> Options::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end() || it->second.empty()) return std::nullopt;
  return it->second;
}

std::string Options::get_or(const std::string& key, const std::string& dflt) const {
  return get(key).value_or(dflt);
}

int Options::get_int(const std::string& key, int dflt) const {
  const auto v = get(key);
  if (!v) return dflt;
  char* end = nullptr;
  errno = 0;
  const long x = std::strtol(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0' || errno == ERANGE || x < INT_MIN || x > INT_MAX) {
    throw std::invalid_argument("--" + key + " expects an integer, got '" + *v + "'");
  }
  return static_cast<int>(x);
}

double Options::get_double(const std::string& key, double dflt) const {
  const auto v = get(key);
  if (!v) return dflt;
  char* end = nullptr;
  const double x = std::strtod(v->c_str(), &end);
  if (end == v->c_str() || *end != '\0') {
    throw std::invalid_argument("--" + key + " expects a number, got '" + *v + "'");
  }
  return x;
}

bool Options::has(const std::string& key) const { return values_.count(key) > 0; }

std::vector<std::string> Options::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, v] : values_) out.push_back(k);  // map: already sorted
  return out;
}

std::vector<std::string> unknown_keys(const Options& opts,
                                      std::initializer_list<std::string_view> allowed) {
  std::vector<std::string> out;
  for (const auto& k : opts.keys()) {
    bool known = false;
    for (const auto a : allowed) {
      if (k == a) {
        known = true;
        break;
      }
    }
    if (!known) out.push_back(k);
  }
  return out;
}

}  // namespace cirrus::core
