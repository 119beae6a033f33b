// The content-addressed cache and its key grammar: canonicalisation is
// order-insensitive, every knob is collision-tested (distinct values ->
// distinct keys) where the run reads it and shares the key where it does
// not, LRU eviction holds at capacity, a stored blob equals a recomputation
// byte for byte, and mixed hit/miss traffic is race-free (this file runs
// under the TSan preset).
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "core/request.hpp"
#include "serve/cache.hpp"
#include "serve/service.hpp"

namespace {

using cirrus::core::RunRequest;
using cirrus::serve::ResultCache;

using KVs = std::vector<std::pair<std::string, std::string>>;

TEST(RequestKey, AllKnobsPresentAndSorted) {
  const RunRequest req;
  const auto items = req.items();
  ASSERT_EQ(items.size(), 22U);
  EXPECT_TRUE(std::is_sorted(items.begin(), items.end(),
                             [](const auto& a, const auto& b) { return a.first < b.first; }));
  const std::string key = req.canonical_key();
  for (const auto& [k, v] : items) {
    EXPECT_NE(key.find(k + "=" + v), std::string::npos) << k;
  }

  // items() splits canonical_key(), the grammar's one writer: any request
  // gives 22 sorted pairs that join back into its key (a non-npb class
  // renders as the default whatever its value, a space included).
  KVs kvs[] = {
      {{"workload", "wf"}, {"wf-shape", "Diamond"}, {"storage", "s3"}, {"np", "6"}},
      {{"topo", "fattree"}, {"oversub", "2.5"}, {"mtbf", "7200"}, {"ckpt", "600"}},
      {{"workload", "metum"}, {"class", "a b=c"}, {"platform", "EC2"}, {"gen", "2020"}},
  };
  for (const auto& request : kvs) {
    RunRequest r;
    std::string error;
    ASSERT_TRUE(RunRequest::parse(request, r, &error)) << error;
    const auto pairs = r.items();
    ASSERT_EQ(pairs.size(), 22U) << r.canonical_key();
    EXPECT_TRUE(std::is_sorted(pairs.begin(), pairs.end(),
                               [](const auto& a, const auto& b) { return a.first < b.first; }));
    std::string joined;
    for (const auto& [k, v] : pairs) joined += (joined.empty() ? "" : " ") + k + "=" + v;
    EXPECT_EQ(joined, r.canonical_key());
  }
}

TEST(RequestKey, HashRendersAsPrintfHex) {
  // The content address's one rendering: printf's %016llx, in headers, spill
  // file names and the suite digest alike.
  const std::uint64_t values[] = {0, 0xa, 0x0123456789abcdef, ~std::uint64_t{0},
                                  RunRequest{}.key_hash()};
  for (const std::uint64_t v : values) {
    char want[17];
    std::snprintf(want, sizeof want, "%016llx", static_cast<unsigned long long>(v));
    EXPECT_EQ(cirrus::core::hex16(v), want);
  }
  EXPECT_EQ(RunRequest{}.key_hash_hex(), cirrus::core::hex16(RunRequest{}.key_hash()));
}

TEST(RequestKey, OrderInsensitive) {
  KVs kvs = {{"np", "64"},          {"platform", "ec2"}, {"workload", "npb"},
             {"bench", "CG"},       {"class", "B"},      {"topo", "fattree"},
             {"oversub", "2"},      {"leaf", "8"},       {"placement", "scatter"},
             {"mtbf", "7200"},      {"ckpt", "600"},     {"seed", "9"},
             {"sched", "calendar"}, {"eager", "8192"},   {"rpn", "8"}};
  RunRequest base;
  std::string error;
  ASSERT_TRUE(RunRequest::parse(kvs, base, &error)) << error;

  std::mt19937 rng(7);
  for (int i = 0; i < 20; ++i) {
    std::shuffle(kvs.begin(), kvs.end(), rng);
    RunRequest shuffled;
    ASSERT_TRUE(RunRequest::parse(kvs, shuffled, &error)) << error;
    EXPECT_EQ(shuffled.canonical_key(), base.canonical_key());
    EXPECT_EQ(shuffled.key_hash(), base.key_hash());
  }
}

TEST(RequestKey, ValueNormalisation) {
  // Case, integral-vs-decimal spellings and defaulted knobs all collapse to
  // one canonical key.
  RunRequest a, b;
  std::string error;
  ASSERT_TRUE(RunRequest::parse({{"bench", "cg"}, {"class", "b"}, {"oversub", "2"}}, a, &error))
      << error;
  ASSERT_TRUE(
      RunRequest::parse({{"bench", "CG"}, {"class", "B"}, {"oversub", "2.0"}, {"np", "8"}}, b,
                        &error))
      << error;
  EXPECT_EQ(a.canonical_key(), b.canonical_key());
}

TEST(RequestKey, IrrelevantBenchDoesNotSplitTheCache) {
  RunRequest a, b;
  std::string error;
  ASSERT_TRUE(RunRequest::parse({{"workload", "metum"}, {"bench", "CG"}}, a, &error)) << error;
  ASSERT_TRUE(RunRequest::parse({{"workload", "metum"}, {"bench", "EP"}}, b, &error)) << error;
  EXPECT_EQ(a.canonical_key(), b.canonical_key());
}

TEST(RequestKey, StorageAndWfKnobsCanonicalise) {
  RunRequest a, b;
  std::string error;
  // "s3" is an alias spelling of the object backend.
  ASSERT_TRUE(RunRequest::parse({{"storage", "s3"}}, a, &error)) << error;
  ASSERT_TRUE(RunRequest::parse({{"storage", "Object"}}, b, &error)) << error;
  EXPECT_EQ(a.canonical_key(), b.canonical_key());
  // OSU microbenchmarks never touch the filesystem: storage must not split
  // their cache entries.
  RunRequest c, d;
  ASSERT_TRUE(RunRequest::parse({{"workload", "osu"}, {"bench", "bw"}}, c, &error)) << error;
  ASSERT_TRUE(
      RunRequest::parse({{"workload", "osu"}, {"bench", "bw"}, {"storage", "lustre"}}, d, &error))
      << error;
  EXPECT_EQ(c.canonical_key(), d.canonical_key());
  // wf-* knobs are pinned for non-workflow workloads.
  RunRequest e, f;
  ASSERT_TRUE(RunRequest::parse({{"workload", "metum"}}, e, &error)) << error;
  ASSERT_TRUE(RunRequest::parse({{"workload", "metum"}, {"wf-shape", "diamond"}}, f, &error))
      << error;
  EXPECT_EQ(e.canonical_key(), f.canonical_key());
  // Workflows reject fault injection (no checkpoint semantics for DAG tasks).
  RunRequest g;
  EXPECT_FALSE(RunRequest::parse({{"workload", "wf"}, {"mtbf", "3600"}}, g, &error));
}

TEST(RequestKey, GenerationFoldsIntoThePlatformValue) {
  // `{platform=vayu, gen=2020}` and `{platform=vayu2020}` are the same
  // machine: they must canonicalise to one key. And because gen folds into
  // the platform value rather than adding a 23rd pair, every pre-generation
  // gen-2012 key stays byte-identical.
  RunRequest a, b;
  std::string error;
  ASSERT_TRUE(RunRequest::parse({{"platform", "vayu"}, {"gen", "2020"}}, a, &error)) << error;
  ASSERT_TRUE(RunRequest::parse({{"platform", "vayu2020"}}, b, &error)) << error;
  EXPECT_EQ(a.canonical_key(), b.canonical_key());
  EXPECT_EQ(a.resolved_platform(), "vayu2020");
  EXPECT_EQ(a.generation(), 2020);
  EXPECT_EQ(a.items().size(), 22U) << "gen must not add a key pair";

  RunRequest c, d;
  ASSERT_TRUE(RunRequest::parse({{"platform", "ec2"}, {"gen", "2020"}}, c, &error)) << error;
  ASSERT_TRUE(RunRequest::parse({{"platform", "ec2_2020"}}, d, &error)) << error;
  EXPECT_EQ(c.canonical_key(), d.canonical_key());

  // An explicit gen=2012 is the default generation: same key as no gen.
  RunRequest e, f;
  ASSERT_TRUE(RunRequest::parse({{"platform", "vayu"}, {"gen", "2012"}}, e, &error)) << error;
  ASSERT_TRUE(RunRequest::parse({{"platform", "vayu"}}, f, &error)) << error;
  EXPECT_EQ(e.canonical_key(), f.canonical_key());
  EXPECT_EQ(f.generation(), 2012);
}

TEST(RequestKey, GenerationRejectsImpossibleCombinations) {
  RunRequest req;
  std::string error;
  EXPECT_FALSE(RunRequest::parse({{"gen", "2021"}}, req, &error));
  EXPECT_NE(error.find("2012|2020"), std::string::npos) << error;
  // The DCC private cloud was retired: no gen-2020 model exists.
  EXPECT_FALSE(RunRequest::parse({{"platform", "dcc"}, {"gen", "2020"}}, req, &error));
  EXPECT_NE(error.find("no gen-2020"), std::string::npos) << error;
  // Asking for the 2012 generation of an already-2020-qualified name is a
  // contradiction, not a silent downgrade.
  EXPECT_FALSE(RunRequest::parse({{"platform", "vayu2020"}, {"gen", "2012"}}, req, &error));
  EXPECT_NE(error.find("conflicts"), std::string::npos) << error;
}

TEST(RequestKey, EveryKnobChangesTheKey) {
  // Collision test across the full knob space: every legal value of every
  // enum knob, plus representative numeric values, must give distinct keys.
  // A knob is tried on a base where the run reads it: the topology knobs on
  // a fat-tree, requeue and horizon with faults on (InertKnobsShareTheKey
  // covers the bases where they are inert, and placement=pgroup, which packs
  // exactly as contig).
  const RunRequest base;
  std::set<std::string> keys = {base.canonical_key()};
  std::set<std::uint64_t> hashes = {base.key_hash()};
  const auto insert_distinct = [&](const KVs& kvs) {
    RunRequest req;
    std::string error;
    ASSERT_TRUE(RunRequest::parse(kvs, req, &error)) << error;
    EXPECT_TRUE(keys.insert(req.canonical_key()).second)
        << "key collision for " << req.canonical_key();
    EXPECT_TRUE(hashes.insert(req.key_hash()).second)
        << "hash collision for " << req.canonical_key();
  };

  for (const char* p : {"dcc", "ec2", "vayu2020", "ec2_2020"}) {
    insert_distinct({{"platform", p}});
  }
  for (const char* w : {"metum", "chaste"}) insert_distinct({{"workload", w}});
  insert_distinct({{"workload", "osu"}, {"bench", "bw"}});
  insert_distinct({{"workload", "osu"}, {"bench", "lat"}});
  for (const char* b : {"BT", "EP", "FT", "IS", "LU", "MG", "SP"}) {
    insert_distinct({{"bench", b}});
  }
  for (const char* c : {"T", "W", "A", "B", "C"}) insert_distinct({{"class", c}});
  for (const char* t : {"fattree", "vswitch", "pgroups"}) insert_distinct({{"topo", t}});
  insert_distinct({{"topo", "fattree"}, {"placement", "scatter"}});
  for (const char* np : {"2", "4", "16", "64", "256"}) insert_distinct({{"np", np}});
  for (const char* rpn : {"1", "4", "8"}) insert_distinct({{"rpn", rpn}});
  for (const char* s : {"2", "3", "12345"}) insert_distinct({{"seed", s}});
  insert_distinct({{"execute", "1"}});
  for (const char* e : {"0", "65536"}) insert_distinct({{"eager", e}});
  for (const char* o : {"2", "4.5"}) insert_distinct({{"topo", "fattree"}, {"oversub", o}});
  for (const char* l : {"2", "8"}) insert_distinct({{"topo", "fattree"}, {"leaf", l}});
  for (const char* m : {"3600", "7200"}) insert_distinct({{"mtbf", m}});
  for (const char* ck : {"300", "600"}) insert_distinct({{"ckpt", ck}});
  insert_distinct({{"mtbf", "3600"}, {"requeue", "120"}});
  insert_distinct({{"mtbf", "3600"}, {"horizon", "86400"}});
  for (const char* s : {"lustre", "object"}) insert_distinct({{"storage", s}});
  insert_distinct({{"workload", "wf"}});
  insert_distinct({{"workload", "wf"}, {"wf-shape", "diamond"}});
  insert_distinct({{"workload", "wf"}, {"wf-shape", "epigenomics"}});
  insert_distinct({{"workload", "wf"}, {"wf-sched", "fifo"}});
  insert_distinct({{"workload", "wf"}, {"wf-width", "12"}});
}

TEST(RequestKey, InertKnobsShareTheKey) {
  // Seeded property test of the pinning rules in RunRequest::items(): a
  // knob the run cannot read renders as its default, so a random value of
  // it keeps canonical_key() and key_hash(). The rules:
  // - topo=crossbar and topo=vswitch: oversub, leaf and placement are inert;
  // - topo=pgroups: oversub is inert;
  // - placement=pgroup packs as contig;
  // - topo=fattree: every oversub <= 1 reads as 1;
  // - mtbf = ckpt = 0: requeue and horizon are inert;
  // - rpn -1 and 0 both fill the node; sched is accepted and discarded;
  // - only npb reads class.
  std::mt19937 rng(20);
  const auto pick = [&rng](std::initializer_list<const char*> values) {
    return std::string(values.begin()[rng() % values.size()]);
  };
  const auto coin = [&rng] { return rng() % 2 == 0; };
  struct Base {
    KVs kvs;
    bool oversub_inert;  // any oversub
    bool shape_inert;    // leaf and placement
    bool low_oversub;    // oversub <= 1 (the base's is 1)
    bool contig;         // contig or pgroup (the base's is contig)
    bool faults_inert;
    bool class_inert = false;  // a non-npb workload
  };
  // A random perturbation of `base.kvs`'s inert knobs, appended after the
  // base's own pairs (so it overrides them); `all` sets every inert knob.
  const auto perturb = [&](const Base& base, bool all) {
    KVs kvs = base.kvs;
    if (base.oversub_inert && (all || coin())) {
      kvs.emplace_back("oversub", pick({"0", "0.5", "2", "4.5", "16"}));
    }
    if (base.low_oversub && (all || coin())) {
      kvs.emplace_back("oversub", pick({"0", "0.25", "0.5", "1"}));
    }
    if (base.shape_inert) {
      if (all || coin()) kvs.emplace_back("leaf", std::to_string(1 + rng() % 64));
      if (all || coin()) kvs.emplace_back("placement", pick({"contig", "scatter", "pgroup"}));
    }
    if (base.contig && (all || coin())) kvs.emplace_back("placement", pick({"contig", "pgroup"}));
    if (base.faults_inert) {
      if (all || coin()) kvs.emplace_back("requeue", std::to_string(rng() % 100000));
      if (all || coin()) kvs.emplace_back("horizon", std::to_string(rng() % 10000000));
    }
    if (base.class_inert && (all || coin())) {
      kvs.emplace_back("class", pick({"T", "S", "B", "c", "x", "a b=c"}));
    }
    if (all || coin()) kvs.emplace_back("rpn", pick({"-1", "0"}));
    if (all || coin()) kvs.emplace_back("sched", pick({"heap4", "calendar", "Calendar"}));
    return kvs;
  };
  const auto request = [](const KVs& kvs) {
    RunRequest req;
    std::string error;
    EXPECT_TRUE(RunRequest::parse(kvs, req, &error)) << error;
    return req;
  };

  const KVs ep = {{"bench", "EP"}, {"class", "S"}, {"np", "4"}};
  const auto with = [](KVs kvs, const KVs& more) {
    kvs.insert(kvs.end(), more.begin(), more.end());
    return kvs;
  };
  // 32 ranks fill 4 nodes: two groups of two with leaf=2, so placement and
  // oversub would matter wherever the fabric read them.
  const KVs ep32 = {{"bench", "EP"}, {"class", "S"}, {"np", "32"}, {"leaf", "2"}};
  const std::vector<Base> bases = {
      {ep, true, true, false, false, true},
      {with(ep, {{"topo", "fattree"}, {"oversub", "2"}, {"placement", "scatter"}}), false,
       false, false, false, true},
      {with(ep, {{"mtbf", "3600"}, {"requeue", "30"}}), true, true, false, false, false},
      {with(ep, {{"ckpt", "600"}, {"topo", "vswitch"}}), true, true, false, false, false},
      {with(ep32, {{"topo", "vswitch"}}), true, true, false, false, true},
      {with(ep32, {{"topo", "pgroups"}}), true, false, false, true, true},
      {with(ep32, {{"topo", "pgroups"}, {"placement", "scatter"}}), true, false, false, false,
       true},
      {with(ep32, {{"topo", "fattree"}}), false, false, true, true, true},
      {with(ep32, {{"topo", "fattree"}, {"oversub", "4"}}), false, false, false, true, true},
      {{{"workload", "metum"}, {"np", "4"}}, true, true, false, false, true, true},
      {{{"workload", "chaste"}, {"np", "4"}}, true, true, false, false, true, true},
      {{{"workload", "wf"}, {"wf-shape", "diamond"}, {"np", "4"}}, true, true, false, false,
       true, true},
      {{{"workload", "osu"}, {"bench", "lat"}, {"platform", "ec2"}}, true, true, false, false,
       true, true},
      {{{"workload", "osu"}, {"bench", "bw"}, {"class", "B"}}, true, true, false, false, true,
       true},
  };
  for (const Base& base : bases) {
    const RunRequest ref = request(base.kvs);
    for (int i = 0; i < 50; ++i) {
      const RunRequest alias = request(perturb(base, i == 0));
      EXPECT_EQ(alias.canonical_key(), ref.canonical_key());
      EXPECT_EQ(alias.key_hash(), ref.key_hash());
    }
  }

  // The pinning must be exact, not just stable: a request with every inert
  // knob perturbed computes the same bytes as its base.
  for (const Base& base : bases) {
    const RunRequest ref = request(base.kvs);
    const RunRequest alias = request(perturb(base, true));
    EXPECT_EQ(cirrus::serve::query_json(alias), cirrus::serve::query_json(ref))
        << ref.canonical_key();
  }
}

TEST(RequestKey, RejectsUnknownAndMalformed) {
  RunRequest req;
  std::string error;
  EXPECT_FALSE(RunRequest::parse({{"bogus", "1"}}, req, &error));
  EXPECT_NE(error.find("unknown key"), std::string::npos);
  EXPECT_FALSE(RunRequest::parse({{"np", "zero"}}, req, &error));
  EXPECT_FALSE(RunRequest::parse({{"np", "0"}}, req, &error));
  EXPECT_FALSE(RunRequest::parse({{"platform", "azure"}}, req, &error));
  EXPECT_FALSE(RunRequest::parse({{"bench", "XX"}}, req, &error));
  EXPECT_FALSE(RunRequest::parse({{"topo", "torus"}}, req, &error));
  EXPECT_FALSE(RunRequest::parse({{"sched", "fifo"}}, req, &error));
  EXPECT_NE(error.find("heap4|calendar"), std::string::npos) << error;
  EXPECT_FALSE(RunRequest::parse({{"mtbf", "-1"}}, req, &error));
  // Infinite numbers are malformed too: mtbf>0 with horizon=inf would draw
  // faults forever.
  EXPECT_FALSE(RunRequest::parse({{"horizon", "inf"}}, req, &error));
  EXPECT_FALSE(RunRequest::parse({{"oversub", "inf"}}, req, &error));
  EXPECT_FALSE(RunRequest::parse({{"mtbf", "inf"}}, req, &error));
}

TEST(ResultCache, HitMissAndOverwrite) {
  ResultCache cache({.capacity = 4, .spill_dir = ""});
  EXPECT_FALSE(cache.get("a").has_value());
  cache.put("a", "blob-a");
  const auto got = cache.get("a");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "blob-a");
  cache.put("a", "blob-a2");
  EXPECT_EQ(*cache.get("a"), "blob-a2");
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 2U);
  EXPECT_EQ(s.misses, 1U);
  EXPECT_EQ(s.entries, 1U);
}

TEST(ResultCache, LruEvictionAtCapacity) {
  ResultCache cache({.capacity = 3, .spill_dir = ""});
  cache.put("a", "A");
  cache.put("b", "B");
  cache.put("c", "C");
  // Touch "a" so "b" is the least recently used.
  EXPECT_TRUE(cache.get("a").has_value());
  cache.put("d", "D");
  EXPECT_EQ(cache.stats().evictions, 1U);
  EXPECT_FALSE(cache.get("b").has_value()) << "LRU entry must be evicted";
  EXPECT_TRUE(cache.get("a").has_value());
  EXPECT_TRUE(cache.get("c").has_value());
  EXPECT_TRUE(cache.get("d").has_value());
  EXPECT_EQ(cache.stats().entries, 3U);
}

TEST(ResultCache, HitOutlivesOverwriteAndEviction) {
  // A hit shares the stored blob rather than copying it: the reference
  // stays whole after its entry is overwritten or evicted.
  ResultCache cache({.capacity = 1, .spill_dir = ""});
  cache.put("a", "A1");
  const auto first = cache.get("a");
  cache.put("a", "A2");
  const auto second = cache.get("a");
  cache.put("b", "B");  // evicts "a"
  EXPECT_FALSE(cache.get("a").has_value());
  EXPECT_EQ(*first, "A1");
  EXPECT_EQ(*second, "A2");
}

TEST(ResultCache, HitEqualsRecompute) {
  // The heart of the contract: a stored blob is byte-identical to a fresh
  // recomputation of the same request (simulator determinism).
  RunRequest req;
  req.workload = "npb";
  req.bench = "EP";
  req.cls = "S";
  req.np = 4;
  std::string error;
  ASSERT_TRUE(req.validate(&error)) << error;

  const std::string first = cirrus::serve::query_json(req);
  ResultCache cache({.capacity = 8, .spill_dir = ""});
  cache.put(req.canonical_key(), first);

  const auto cached = cache.get(req.canonical_key());
  ASSERT_TRUE(cached.has_value());
  const std::string recomputed = cirrus::serve::query_json(req);
  EXPECT_EQ(*cached, recomputed) << "cache hit must be byte-identical to recompute";
}

TEST(ResultCache, WfHitEqualsRecompute) {
  // Same contract for the workflow branch: a warm hit for a wf what-if must
  // be byte-identical to recomputing the whole DAG simulation.
  RunRequest req;
  req.workload = "wf";
  req.wf_shape = "montage";
  req.wf_sched = "heft";
  req.platform = "ec2";
  req.storage = "object";
  req.np = 8;
  std::string error;
  ASSERT_TRUE(req.validate(&error)) << error;

  const std::string first = cirrus::serve::query_json(req);
  EXPECT_NE(first.find("wf_makespan_s"), std::string::npos);
  EXPECT_NE(first.find("\"storage\""), std::string::npos);
  ResultCache cache({.capacity = 8, .spill_dir = ""});
  cache.put(req.canonical_key(), first);

  const auto cached = cache.get(req.canonical_key());
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(*cached, cirrus::serve::query_json(req));
}

TEST(ResultCache, SpillDirectorySurvivesRestart) {
  const std::string dir = ::testing::TempDir() + "serve_cache_spill";
  std::string path;
  {
    ResultCache cache({.capacity = 4, .spill_dir = dir});
    cache.put("k1", "persisted-blob");
    path = cache.spill_path("k1");
  }
  struct stat before {};
  ASSERT_EQ(::stat(path.c_str(), &before), 0);
  ResultCache fresh({.capacity = 4, .spill_dir = dir});
  const auto got = fresh.get("k1");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "persisted-blob");
  EXPECT_EQ(fresh.stats().disk_hits, 1U);
  // The disk hit is admitted to memory without writing the file back: a
  // write goes to a temp file renamed into place, so the path would name a
  // new inode.
  struct stat after {};
  ASSERT_EQ(::stat(path.c_str(), &after), 0);
  EXPECT_EQ(after.st_ino, before.st_ino) << "the disk hit rewrote " << path;
  ASSERT_TRUE(fresh.get("k1").has_value());
  EXPECT_EQ(fresh.stats().hits, 1U);
  EXPECT_FALSE(fresh.get("never-stored").has_value());
}

TEST(ResultCache, ConcurrentMixedHitMiss) {
  // Hammer one cache from many threads with overlapping keys: some threads
  // re-put, some get; TSan (serve_ preset filter) checks the locking.
  ResultCache cache({.capacity = 64, .spill_dir = ""});
  constexpr int kThreads = 8;
  constexpr int kOps = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOps; ++i) {
        const std::string key = "key-" + std::to_string((t * 7 + i) % 96);
        if (i % 3 == 0) {
          cache.put(key, "blob-" + key);
        } else if (const auto got = cache.get(key)) {
          // A hit must carry the exact blob stored for that key — never a
          // torn or foreign value.
          ASSERT_EQ(*got, "blob-" + key);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto s = cache.stats();
  EXPECT_GT(s.hits + s.misses, 0U);
  EXPECT_LE(s.entries, 64U);
}

}  // namespace
