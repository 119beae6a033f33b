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

}  // namespace

ResultCache::ResultCache(Options opts) : opts_(opts) {
  if (opts_.capacity == 0) opts_.capacity = 1;
  if (!opts_.spill_dir.empty()) {
    ::mkdir(opts_.spill_dir.c_str(), 0755);  // best effort; writes report errors
  }
}

std::string ResultCache::spill_path(const std::string& key) const {
  if (opts_.spill_dir.empty()) return "";
  return opts_.spill_dir + "/" + core::hex16(core::fnv1a64(key)) + ".json";
}

void ResultCache::touch(Entry& e) { lru_.splice(lru_.begin(), lru_, e.lru_it); }

BlobRef ResultCache::get(const std::string& key, std::uint64_t hash) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(hash);
    if (it != entries_.end()) {
      if (it->second.key == key) {
        ++stats_.hits;
        touch(it->second);
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
  if (path.empty()) return nullptr;
  std::ifstream in(path, std::ios::binary);
  if (!in) return nullptr;
  std::string first_line;
  if (!std::getline(in, first_line)) return nullptr;
  if (first_line != kSpillMagic + key) return nullptr;  // collision or foreign file
  std::ostringstream rest;
  rest << in.rdbuf();
  // The file already holds this blob: admit it to memory without writing
  // it back.
  BlobRef stored = std::make_shared<const std::string>(std::move(rest).str());
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.disk_hits;
  admit(key, hash, stored);
  return stored;
}

void ResultCache::admit(const std::string& key, std::uint64_t hash, const BlobRef& stored) {
  const auto it = entries_.find(hash);
  if (it != entries_.end()) {
    // Overwrite (same key) or keep-first (collision): either way the map
    // stays consistent with exactly one entry per hash.
    if (it->second.key == key) {
      it->second.blob = stored;
      touch(it->second);
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
    entries_.emplace(hash, Entry{key, stored, lru_.begin()});
  }
  stats_.entries = entries_.size();
}

BlobRef ResultCache::put(const std::string& key, std::uint64_t hash, std::string blob) {
  BlobRef stored = std::make_shared<const std::string>(std::move(blob));
  {
    std::lock_guard<std::mutex> lock(mu_);
    admit(key, hash, stored);
  }

  const std::string path = spill_path(key);
  if (path.empty()) return stored;
  // Atomic-enough persistence: write a uniquely named temp file, then
  // rename into place (concurrent writers of one key race benignly — both
  // rename complete, identical blobs).
  static std::atomic<std::uint64_t> tmp_seq{0};
  const std::string tmp = path + ".tmp" + std::to_string(tmp_seq.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary);
    if (!out) return stored;
    out << kSpillMagic << key << '\n' << *stored;
    if (!out.flush()) return stored;
  }
  std::rename(tmp.c_str(), path.c_str());
  return stored;
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace cirrus::serve
