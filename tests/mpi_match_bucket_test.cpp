// Matching semantics of the mailbox's flat posted/unexpected lists: FIFO per
// (source, tag) pair, any-source/any-tag wildcard arbitration against both
// the unexpected list and posted receives, any-tag receives that skip
// collective traffic, a seeded property test against a
// naive single-queue matcher, and collectives on non-power-of-two
// communicators (which stress odd tag patterns).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <vector>

#include "mpi/minimpi.hpp"

namespace mpi = cirrus::mpi;
namespace plat = cirrus::plat;

namespace {

mpi::JobConfig cfg(int np) {
  mpi::JobConfig c;
  c.platform = plat::vayu();
  c.np = np;
  c.seed = 42;
  c.name = "match-test";
  return c;
}

}  // namespace

TEST(MatchBuckets, FifoPerSourceTagPair) {
  // Messages on one (source, tag) pair must be received in send order even
  // when many sit unexpected, interleaved with traffic on other tags.
  auto r = mpi::run_job(cfg(2), [](mpi::RankEnv& env) {
    auto& c = env.world();
    if (c.rank() == 0) {
      for (int i = 0; i < 8; ++i) {
        double v = 100 + i;
        c.send(1, /*tag=*/5, &v, 1);
        double w = 200 + i;
        c.send(1, /*tag=*/6, &w, 1);
      }
    } else {
      env.compute(0.001);  // let everything arrive unexpected first
      for (int i = 0; i < 8; ++i) {
        double v = 0;
        c.recv(0, 5, &v, 1);
        ASSERT_DOUBLE_EQ(v, 100 + i);
      }
      for (int i = 0; i < 8; ++i) {
        double w = 0;
        c.recv(0, 6, &w, 1);
        ASSERT_DOUBLE_EQ(w, 200 + i);
      }
      env.report("ok", 1);
    }
  });
  EXPECT_EQ(r.values.at("ok"), 1);
}

TEST(MatchBuckets, AnySourcePicksEarliestArrival) {
  // Two senders with staggered start times; an any-source receive must match
  // arrival order across buckets, not bucket iteration order.
  auto r = mpi::run_job(cfg(3), [](mpi::RankEnv& env) {
    auto& c = env.world();
    if (c.rank() == 1) {
      env.compute(0.002);  // rank 1 sends second
      double v = 1;
      c.send(0, 7, &v, 1);
    } else if (c.rank() == 2) {
      double v = 2;  // rank 2 sends first
      c.send(0, 7, &v, 1);
    } else {
      env.compute(0.004);  // both messages are unexpected by now
      double first = 0, second = 0;
      c.recv(mpi::kAnySource, 7, &first, 1);
      c.recv(mpi::kAnySource, 7, &second, 1);
      env.report("first", first);
      env.report("second", second);
    }
  });
  EXPECT_DOUBLE_EQ(r.values.at("first"), 2);   // rank 2 arrived first
  EXPECT_DOUBLE_EQ(r.values.at("second"), 1);  // rank 1 arrived second
}

TEST(MatchBuckets, AnyTagPicksEarliestArrival) {
  auto r = mpi::run_job(cfg(2), [](mpi::RankEnv& env) {
    auto& c = env.world();
    if (c.rank() == 0) {
      double v = 31;
      c.send(1, /*tag=*/3, &v, 1);
      env.compute(0.001);
      v = 91;
      c.send(1, /*tag=*/9, &v, 1);
    } else {
      env.compute(0.002);
      double first = 0, second = 0;
      c.recv(0, mpi::kAnyTag, &first, 1);
      c.recv(0, mpi::kAnyTag, &second, 1);
      env.report("first", first);
      env.report("second", second);
    }
  });
  EXPECT_DOUBLE_EQ(r.values.at("first"), 31);
  EXPECT_DOUBLE_EQ(r.values.at("second"), 91);
}

TEST(MatchBuckets, WildcardAndExactPostedOrderRespected) {
  // A message matches the earliest-posted receive among all candidates,
  // whether that receive is exact or wildcard.
  auto r = mpi::run_job(cfg(2), [](mpi::RankEnv& env) {
    auto& c = env.world();
    if (c.rank() == 0) {
      env.compute(0.001);  // both receives are posted before the send lands
      double v = 55;
      c.send(1, 4, &v, 1);
      v = 66;
      c.send(1, 4, &v, 1);
    } else {
      double wild = 0, exact = 0;
      mpi::Request rw = c.irecv(mpi::kAnySource, mpi::kAnyTag, &wild, 1);
      mpi::Request re = c.irecv(0, 4, &exact, 1);
      c.wait(rw);
      c.wait(re);
      // The wildcard was posted first, so it takes the first message.
      env.report("wild", wild);
      env.report("exact", exact);
    }
  });
  EXPECT_DOUBLE_EQ(r.values.at("wild"), 55);
  EXPECT_DOUBLE_EQ(r.values.at("exact"), 66);
}

TEST(MatchBuckets, ExactBeforeWildcardWins) {
  auto r = mpi::run_job(cfg(2), [](mpi::RankEnv& env) {
    auto& c = env.world();
    if (c.rank() == 0) {
      env.compute(0.001);
      double v = 55;
      c.send(1, 4, &v, 1);
      v = 66;
      c.send(1, 4, &v, 1);
    } else {
      double wild = 0, exact = 0;
      mpi::Request re = c.irecv(0, 4, &exact, 1);
      mpi::Request rw = c.irecv(mpi::kAnySource, mpi::kAnyTag, &wild, 1);
      c.wait(re);
      c.wait(rw);
      env.report("wild", wild);
      env.report("exact", exact);
    }
  });
  EXPECT_DOUBLE_EQ(r.values.at("exact"), 55);
  EXPECT_DOUBLE_EQ(r.values.at("wild"), 66);
}

TEST(MatchBuckets, ManyDistinctTagsReverseOrder) {
  // The match-queue stress shape: N receives on distinct tags, messages
  // arriving in reverse tag order. Every message must land in its own tag's
  // buffer regardless of posting/arrival order.
  constexpr int kTags = 100;
  auto r = mpi::run_job(cfg(2), [](mpi::RankEnv& env) {
    auto& c = env.world();
    if (c.rank() == 0) {
      for (int t = kTags - 1; t >= 0; --t) {
        double v = 1000 + t;
        c.send(1, t, &v, 1);
      }
    } else {
      std::vector<double> got(kTags, 0);
      std::vector<mpi::Request> reqs;
      reqs.reserve(kTags);
      for (int t = 0; t < kTags; ++t) reqs.push_back(c.irecv(0, t, &got[t], 1));
      c.waitall(reqs);
      int ok = 1;
      for (int t = 0; t < kTags; ++t) {
        if (got[t] != 1000 + t) ok = 0;
      }
      env.report("ok", ok);
    }
  });
  EXPECT_EQ(r.values.at("ok"), 1);
}

TEST(MatchBuckets, AnyTagSkipsCollectiveTraffic) {
  // A wildcard receive posted before a barrier must not match the barrier's
  // internal messages (MPI keeps collectives in their own context): it waits
  // for the user's tag-7 send that follows the barrier.
  auto r = mpi::run_job(cfg(2), [](mpi::RankEnv& env) {
    auto& c = env.world();
    if (c.rank() == 0) {
      c.barrier();
      double v = 7;
      c.send(1, /*tag=*/7, &v, 1);
    } else {
      double got = 0;
      mpi::Request rq = c.irecv(mpi::kAnySource, mpi::kAnyTag, &got, 1);
      c.barrier();
      c.wait(rq);
      env.report("got", got);
    }
  });
  EXPECT_DOUBLE_EQ(r.values.at("got"), 7);
}

TEST(MatchBuckets, AnyTagSkipsUnexpectedCollectiveTraffic) {
  // The same from the unexpected side: rank 0's barrier message is already
  // waiting when rank 1 posts its wildcard receive.
  auto r = mpi::run_job(cfg(2), [](mpi::RankEnv& env) {
    auto& c = env.world();
    if (c.rank() == 0) {
      c.barrier();
      double v = 7;
      c.send(1, /*tag=*/7, &v, 1);
    } else {
      env.compute(0.001);  // rank 0's barrier message arrives unexpected
      double got = 0;
      mpi::Request rq = c.irecv(mpi::kAnySource, mpi::kAnyTag, &got, 1);
      c.barrier();
      c.wait(rq);
      env.report("got", got);
    }
  });
  EXPECT_DOUBLE_EQ(r.values.at("got"), 7);
}

TEST(MatchBuckets, NonPowerOfTwoCommunicatorCollectives) {
  // np = 6 world split into a 5-rank sub-communicator: exercises the
  // non-power-of-two branches of the dissemination/tree collectives, whose
  // fresh-tag-per-call pattern churns the match buckets hardest.
  auto r = mpi::run_job(cfg(6), [](mpi::RankEnv& env) {
    auto& c = env.world();
    double x = c.rank() + 1;
    double sum = 0;
    c.allreduce(&x, &sum, 1, mpi::Op::Sum);
    if (c.rank() == 0) env.report("world_sum", sum);

    auto sub = c.split(c.rank() < 5 ? 0 : 1, c.rank());
    if (c.rank() < 5) {
      double y = c.rank() + 1;
      double subsum = 0;
      sub->allreduce(&y, &subsum, 1, mpi::Op::Sum);
      std::vector<double> all(static_cast<std::size_t>(sub->size()), 0);
      sub->allgather(&y, all.data(), 1);
      double gathered = 0;
      for (double v : all) gathered += v;
      if (sub->rank() == 0) {
        env.report("sub_sum", subsum);
        env.report("sub_gathered", gathered);
      }
    }
    c.barrier();
  });
  EXPECT_DOUBLE_EQ(r.values.at("world_sum"), 21);     // 1+2+...+6
  EXPECT_DOUBLE_EQ(r.values.at("sub_sum"), 15);       // 1+2+...+5
  EXPECT_DOUBLE_EQ(r.values.at("sub_gathered"), 15);
}

namespace {

/// One step of a matching script: a send from `src` (1..3) to rank 0, or a
/// receive posted by rank 0, where src and tag may be wildcards.
struct MatchOp {
  bool send = false;
  int src = 0;
  int tag = 0;
  bool large = false;  // a send above the eager threshold (rendezvous)
};

/// MPI's matching rule over one queue per side: an arrival takes the
/// earliest-posted matching receive, a receive the earliest-arrived matching
/// message. Returns, per receive (in post order), the index of the send it
/// takes; appends sends and receives to `ops` until nothing is left waiting.
std::vector<int> naive_match(std::vector<MatchOp>& ops, std::mt19937_64& rng) {
  struct Waiting {
    int id;
    int src;
    int tag;
  };
  std::vector<Waiting> posted;      // receives, post order
  std::vector<Waiting> unexpected;  // sends, arrival order
  std::vector<int> matched;
  int sends = 0;
  const auto apply = [&](const MatchOp& op) {
    if (op.send) {
      const int id = sends++;
      const auto it = std::find_if(posted.begin(), posted.end(), [&](const Waiting& w) {
        return (w.src == mpi::kAnySource || w.src == op.src) &&
               (w.tag == mpi::kAnyTag || w.tag == op.tag);
      });
      if (it == posted.end()) {
        unexpected.push_back({id, op.src, op.tag});
      } else {
        matched[static_cast<std::size_t>(it->id)] = id;
        posted.erase(it);
      }
    } else {
      const int id = static_cast<int>(matched.size());
      matched.push_back(-1);
      const auto it = std::find_if(unexpected.begin(), unexpected.end(), [&](const Waiting& w) {
        return (op.src == mpi::kAnySource || op.src == w.src) &&
               (op.tag == mpi::kAnyTag || op.tag == w.tag);
      });
      if (it == unexpected.end()) {
        posted.push_back({id, op.src, op.tag});
      } else {
        matched[static_cast<std::size_t>(id)] = it->id;
        unexpected.erase(it);
      }
    }
  };
  for (const MatchOp& op : ops) apply(op);
  // Drain: a send for each receive still posted, then an exact receive for
  // each message still unexpected.
  while (!posted.empty()) {
    const Waiting w = posted.front();
    MatchOp op{true, w.src == mpi::kAnySource ? 1 + static_cast<int>(rng() % 3) : w.src,
               w.tag == mpi::kAnyTag ? static_cast<int>(rng() % 3) : w.tag, false};
    ops.push_back(op);
    apply(op);
  }
  while (!unexpected.empty()) {
    const MatchOp op{false, unexpected.front().src, unexpected.front().tag, false};
    ops.push_back(op);
    apply(op);
  }
  return matched;
}

}  // namespace

TEST(MatchBuckets, RandomInterleavingsMatchNaiveMatcher) {
  // Random scripts of sends (eager and rendezvous, three sources, three
  // tags) and exact/wildcard receives, one step per 10 ms slot so the
  // arrival/post interleaving is exactly the script's. Every receive must
  // get the message the naive single-queue matcher assigns it.
  constexpr double kSlot = 0.01;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    std::mt19937_64 rng(seed);
    std::vector<MatchOp> ops;
    const int steps = 20 + static_cast<int>(rng() % 60);
    for (int i = 0; i < steps; ++i) {
      MatchOp op;
      op.send = rng() % 2 == 0;
      op.src = 1 + static_cast<int>(rng() % 3);
      op.tag = static_cast<int>(rng() % 3);
      if (op.send) {
        op.large = rng() % 4 == 0;
      } else {
        if (rng() % 4 == 0) op.src = mpi::kAnySource;
        if (rng() % 4 == 0) op.tag = mpi::kAnyTag;
      }
      ops.push_back(op);
    }
    const std::vector<int> want = naive_match(ops, rng);

    mpi::JobConfig c = cfg(4);
    c.platform.compute.jitter_sigma = 0;  // compute() then lands on each slot
    const std::size_t large = c.eager_threshold_bytes + 64;
    std::vector<int> got(want.size(), -2);
    mpi::run_job(c, [&](mpi::RankEnv& env) {
      auto& comm = env.world();
      // This rank's compute speed, so it can wait for an absolute time.
      const double t0 = env.now_seconds();
      env.compute(kSlot);
      const double per_ref_s = (env.now_seconds() - t0) / kSlot;
      std::vector<std::vector<int>> bufs;
      bufs.reserve(ops.size());  // stable: rendezvous reads a sender's buffer late
      std::vector<mpi::Request> reqs;
      int send_id = 0;
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const MatchOp& op = ops[i];
        const int id = op.send ? send_id++ : 0;
        const bool mine = op.send ? comm.rank() == op.src : comm.rank() == 0;
        if (!mine) continue;
        const double at = kSlot * static_cast<double>(i + 2);
        env.compute((at - env.now_seconds()) / per_ref_s);
        auto& buf = bufs.emplace_back(large / sizeof(int), -1);
        if (op.send) {
          buf[0] = id;
          reqs.push_back(comm.isend_bytes(0, op.tag, buf.data(),
                                          op.large ? large : sizeof(int)));
        } else {
          reqs.push_back(comm.irecv_bytes(op.src, op.tag, buf.data(), large));
        }
      }
      comm.waitall(reqs);
      if (comm.rank() == 0) {
        for (std::size_t r = 0; r < bufs.size(); ++r) got[r] = bufs[r][0];
      }
    });
    ASSERT_EQ(got, want) << "seed " << seed;
  }
}
