// Content-addressed result cache: canonical request key -> result blob.
//
// The simulator is deterministic, so a cache hit is *exact*: the stored blob
// is byte-identical to what a recomputation would produce. That turns the
// classic benchmarking-service trade-off (staleness vs cost) into a pure
// win, and makes hits verifiable — Service's verify mode re-executes a
// sampled fraction of hits and asserts byte equality (the strongest
// self-test a caching layer can have).
//
// Addressing: FNV-1a 64-bit over the canonical key (core::RunRequest's
// sorted `k=v` grammar). The full key string is stored alongside the blob
// and compared on lookup, so a hash collision degrades to a miss, never to
// a wrong answer.
//
// Eviction: LRU over an intrusive list at a fixed entry capacity. An
// optional spill directory persists blobs as `<hash>.json` files
// (cirrus-manifest-style JSON); lookups fall back to disk after a memory
// miss, so a restarted server keeps its warm set.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/hash.hpp"

namespace cirrus::serve {

/// A stored blob, shared with the cache: a hit hands out a reference, so no
/// blob is copied under the cache lock. Null on a miss; has_value() keeps
/// optional-style callers working.
struct BlobRef : std::shared_ptr<const std::string> {
  using std::shared_ptr<const std::string>::shared_ptr;
  BlobRef(std::shared_ptr<const std::string> p) noexcept  // NOLINT: implicit by design
      : std::shared_ptr<const std::string>(std::move(p)) {}
  [[nodiscard]] bool has_value() const noexcept { return get() != nullptr; }
};

class ResultCache {
 public:
  struct Options {
    std::size_t capacity = 1024;  ///< max in-memory entries (>= 1)
    std::string spill_dir;        ///< "" = memory only
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t disk_hits = 0;   ///< misses served from the spill dir
    std::uint64_t collisions = 0;  ///< hash matches with different keys
    std::uint64_t entries = 0;     ///< current in-memory entry count
  };

  explicit ResultCache(Options opts);

  /// The blob stored for `key`, or null. Thread-safe; refreshes LRU
  /// recency on hit. A memory miss consults the spill directory and
  /// re-admits a disk hit to memory without rewriting its file.
  BlobRef get(const std::string& key) { return get(key, core::fnv1a64(key)); }
  /// get() for a caller that already holds the key's hash, core::fnv1a64(key).
  BlobRef get(const std::string& key, std::uint64_t hash);

  /// Stores (key, blob), evicting the least-recently-used entry when full.
  /// Overwrites any previous blob for the key. Returns the blob as stored.
  BlobRef put(const std::string& key, std::string blob) {
    return put(key, core::fnv1a64(key), std::move(blob));
  }
  /// put() for a caller that already holds the key's hash.
  BlobRef put(const std::string& key, std::uint64_t hash, std::string blob);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return opts_.capacity; }

  /// The spill-file path for a key ("" when spilling is off).
  [[nodiscard]] std::string spill_path(const std::string& key) const;

 private:
  struct Entry {
    std::string key;
    BlobRef blob;
    std::list<std::uint64_t>::iterator lru_it;  // position in lru_ (front = hottest)
  };

  void touch(Entry& e);  // moves e to the LRU front; requires mu_ held
  // Stores `stored` in memory (no spill write), evicting the LRU entry when
  // full; requires mu_ held.
  void admit(const std::string& key, std::uint64_t hash, const BlobRef& stored);

  Options opts_;
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::list<std::uint64_t> lru_;
  Stats stats_;
};

}  // namespace cirrus::serve
