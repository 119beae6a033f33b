#include "serve/cache.hpp"

#include <sys/stat.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/request.hpp"

namespace cirrus::serve {

namespace {

/// First line of a spill file is the full canonical key (collision guard);
/// the rest is the blob. The blob itself stays valid JSON on disk once the
/// key line is stripped.
constexpr char kSpillMagic[] = "# cirrus-serve-cache key: ";

std::string hash_hex(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

ResultCache::ResultCache(Options opts) : opts_(opts) {
  if (opts_.capacity == 0) opts_.capacity = 1;
  if (!opts_.spill_dir.empty()) {
    ::mkdir(opts_.spill_dir.c_str(), 0755);  // best effort; writes report errors
  }
}

std::string ResultCache::spill_path(const std::string& key) const {
  if (opts_.spill_dir.empty()) return "";
  return opts_.spill_dir + "/" + hash_hex(core::fnv1a64(key)) + ".json";
}

void ResultCache::touch(std::uint64_t hash, Entry& e) {
  lru_.erase(e.lru_it);
  lru_.push_front(hash);
  e.lru_it = lru_.begin();
}

std::optional<std::string> ResultCache::get(const std::string& key, std::uint64_t hash) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(hash);
    if (it != entries_.end()) {
      if (it->second.key == key) {
        ++stats_.hits;
        touch(hash, it->second);
        return it->second.blob;
      }
      // Same 64-bit address, different request: treat as a miss (the entry
      // keeps its slot; correctness over occupancy).
      ++stats_.collisions;
    }
    ++stats_.misses;
  }

  // Disk fallback outside the lock (I/O latency must not serialise hits).
  const std::string path = spill_path(key);
  if (path.empty()) return std::nullopt;
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string first_line;
  if (!std::getline(in, first_line)) return std::nullopt;
  if (first_line != kSpillMagic + key) return std::nullopt;  // collision or foreign file
  std::ostringstream rest;
  rest << in.rdbuf();
  std::string blob = rest.str();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.disk_hits;
  }
  put(key, hash, blob);
  return blob;
}

void ResultCache::put(const std::string& key, std::uint64_t hash, const std::string& blob) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(hash);
    if (it != entries_.end()) {
      // Overwrite (same key) or keep-first (collision): either way the map
      // stays consistent with exactly one entry per hash.
      if (it->second.key == key) {
        it->second.blob = blob;
        touch(hash, it->second);
      } else {
        ++stats_.collisions;
      }
    } else {
      while (entries_.size() >= opts_.capacity && !lru_.empty()) {
        const std::uint64_t victim = lru_.back();
        lru_.pop_back();
        entries_.erase(victim);
        ++stats_.evictions;
      }
      lru_.push_front(hash);
      entries_.emplace(hash, Entry{key, blob, lru_.begin()});
    }
    stats_.entries = entries_.size();
  }

  const std::string path = spill_path(key);
  if (path.empty()) return;
  // Atomic-enough persistence: write a uniquely named temp file, then
  // rename into place (concurrent writers of one key race benignly — both
  // rename complete, identical blobs).
  static std::atomic<std::uint64_t> tmp_seq{0};
  const std::string tmp = path + ".tmp" + std::to_string(tmp_seq.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary);
    if (!out) return;
    out << kSpillMagic << key << '\n' << blob;
    if (!out.flush()) return;
  }
  std::rename(tmp.c_str(), path.c_str());
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace cirrus::serve
