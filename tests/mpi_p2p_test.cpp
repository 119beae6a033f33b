// Point-to-point semantics of minimpi: matching, ordering, protocols,
// non-blocking requests, model mode and deadlock detection.
#include "mpi/minimpi.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace mpi = cirrus::mpi;
namespace plat = cirrus::plat;

namespace {

mpi::JobConfig cfg(int np, const plat::Platform& p = plat::vayu()) {
  mpi::JobConfig c;
  c.platform = p;
  c.np = np;
  c.seed = 42;
  c.name = "p2p-test";
  return c;
}

}  // namespace

TEST(P2P, BlockingSendRecvDeliversData) {
  auto r = mpi::run_job(cfg(2), [](mpi::RankEnv& env) {
    auto& c = env.world();
    if (c.rank() == 0) {
      std::vector<int> data(100);
      std::iota(data.begin(), data.end(), 7);
      c.send(1, 5, data.data(), data.size());
    } else {
      std::vector<int> data(100, -1);
      c.recv(0, 5, data.data(), data.size());
      for (int i = 0; i < 100; ++i) ASSERT_EQ(data[static_cast<std::size_t>(i)], 7 + i);
      env.report("ok", 1);
    }
  });
  EXPECT_EQ(r.values.at("ok"), 1);
  EXPECT_GT(r.elapsed_seconds, 0);
}

TEST(P2P, RecvBeforeSendWorks) {
  // The receiver posts first and blocks; the sender arrives later.
  auto r = mpi::run_job(cfg(2), [](mpi::RankEnv& env) {
    auto& c = env.world();
    if (c.rank() == 1) {
      double x = 0;
      c.recv(0, 1, &x, 1);
      env.report("x", x);
    } else {
      env.compute(0.001);  // the sender is late
      double x = 3.25;
      c.send(1, 1, &x, 1);
    }
  });
  EXPECT_DOUBLE_EQ(r.values.at("x"), 3.25);
}

TEST(P2P, UnexpectedMessageIsBuffered) {
  auto r = mpi::run_job(cfg(2), [](mpi::RankEnv& env) {
    auto& c = env.world();
    if (c.rank() == 0) {
      double x = 1.5;
      c.send(1, 9, &x, 1);
    } else {
      env.compute(0.01);  // let the message arrive before the recv posts
      double x = 0;
      c.recv(0, 9, &x, 1);
      env.report("x", x);
    }
  });
  EXPECT_DOUBLE_EQ(r.values.at("x"), 1.5);
}

TEST(P2P, TagsSelectMessages) {
  auto r = mpi::run_job(cfg(2), [](mpi::RankEnv& env) {
    auto& c = env.world();
    if (c.rank() == 0) {
      double a = 1, b = 2;
      c.send(1, 10, &a, 1);
      c.send(1, 20, &b, 1);
    } else {
      double a = 0, b = 0;
      c.recv(0, 20, &b, 1);  // out of arrival order, selected by tag
      c.recv(0, 10, &a, 1);
      env.report("a", a);
      env.report("b", b);
    }
  });
  EXPECT_DOUBLE_EQ(r.values.at("a"), 1);
  EXPECT_DOUBLE_EQ(r.values.at("b"), 2);
}

TEST(P2P, AnySourceAndAnyTagMatch) {
  auto r = mpi::run_job(cfg(3), [](mpi::RankEnv& env) {
    auto& c = env.world();
    if (c.rank() != 0) {
      double x = c.rank() * 10.0;
      c.send(0, c.rank(), &x, 1);
    } else {
      double sum = 0, x = 0;
      c.recv(mpi::kAnySource, mpi::kAnyTag, &x, 1);
      sum += x;
      c.recv(mpi::kAnySource, mpi::kAnyTag, &x, 1);
      sum += x;
      env.report("sum", sum);
    }
  });
  EXPECT_DOUBLE_EQ(r.values.at("sum"), 30.0);
}

TEST(P2P, MessagesBetweenSamePairSameTagDoNotOvertake) {
  auto r = mpi::run_job(cfg(2), [](mpi::RankEnv& env) {
    auto& c = env.world();
    constexpr int kN = 50;
    if (c.rank() == 0) {
      for (int i = 0; i < kN; ++i) {
        c.send(1, 3, &i, 1);
      }
    } else {
      for (int i = 0; i < kN; ++i) {
        int v = -1;
        c.recv(0, 3, &v, 1);
        ASSERT_EQ(v, i) << "message overtaking detected";
      }
      env.report("ok", 1);
    }
  });
  EXPECT_EQ(r.values.at("ok"), 1);
}

TEST(P2P, LargeMessageUsesRendezvousAndDeliversIntact) {
  auto r = mpi::run_job(cfg(2), [](mpi::RankEnv& env) {
    auto& c = env.world();
    const std::size_t n = 1 << 20;  // 8 MB of doubles: far beyond eager
    if (c.rank() == 0) {
      std::vector<double> data(n);
      for (std::size_t i = 0; i < n; ++i) data[i] = static_cast<double>(i % 1000) * 0.5;
      c.send(1, 1, data.data(), n);
    } else {
      std::vector<double> data(n, -1);
      c.recv(0, 1, data.data(), n);
      double checksum = 0;
      for (std::size_t i = 0; i < n; i += 997) checksum += data[i];
      env.report("checksum", checksum);
      double expect = 0;
      for (std::size_t i = 0; i < n; i += 997) expect += static_cast<double>(i % 1000) * 0.5;
      env.report("expect", expect);
    }
  });
  EXPECT_DOUBLE_EQ(r.values.at("checksum"), r.values.at("expect"));
}

TEST(P2P, RendezvousSenderBlocksUntilReceiverArrives) {
  auto r = mpi::run_job(cfg(2), [](mpi::RankEnv& env) {
    auto& c = env.world();
    const std::size_t big = 4 << 20;
    const std::size_t small = 16;
    if (c.rank() == 0) {
      c.send_bytes(1, 2, nullptr, small);  // eager: completes immediately
      env.report("eager_done", env.now_seconds());
      c.send_bytes(1, 1, nullptr, big);  // rendezvous: blocks for the receiver
      env.report("rendezvous_done", env.now_seconds());
    } else {
      env.compute(0.5);  // receiver shows up late (in reference seconds)
      const double arrived = env.now_seconds();
      env.report("receiver_arrived", arrived);
      c.recv_bytes(0, 1, nullptr, big);
      c.recv_bytes(0, 2, nullptr, small);
    }
  });
  // Eager completes long before the receiver arrives; rendezvous cannot.
  EXPECT_LT(r.values.at("eager_done"), 0.01);
  EXPECT_GT(r.values.at("rendezvous_done"), r.values.at("receiver_arrived"));
}

TEST(P2P, DroppedRendezvousRequestsCompleteOrDieWithTheJob) {
  // Both ends drop their non-blocking rendezvous requests at once. The
  // queued completions keep the request states alive until they fire, and a
  // job killed while they are still queued tears down cleanly.
  auto config = cfg(2, plat::dcc());
  config.max_ranks_per_node = 1;  // over GigE: the transfer takes milliseconds
  const auto body = [](mpi::RankEnv& env) {
    auto& c = env.world();
    const std::size_t big = 4 << 20;
    if (c.rank() == 0) {
      (void)c.isend_bytes(1, 1, nullptr, big);
    } else {
      (void)c.irecv_bytes(0, 1, nullptr, big);
    }
    env.compute(1.0);
  };
  EXPECT_GT(mpi::run_job(config, body).elapsed_seconds, 0.0);
  config.faults.kill_at_s = 0.005;  // after the match, before the completions
  EXPECT_THROW(mpi::run_job(config, body), mpi::JobKilledError);
}

TEST(P2P, IsendIrecvWaitall) {
  auto r = mpi::run_job(cfg(2), [](mpi::RankEnv& env) {
    auto& c = env.world();
    if (c.rank() == 0) {
      std::vector<double> a(10, 1.0), b(10, 2.0);
      std::array<mpi::Request, 2> reqs{c.isend(1, 1, a.data(), 10),
                                       c.isend(1, 2, b.data(), 10)};
      c.waitall(reqs);
    } else {
      std::vector<double> a(10), b(10);
      std::array<mpi::Request, 2> reqs{c.irecv(0, 2, b.data(), 10),
                                       c.irecv(0, 1, a.data(), 10)};
      c.waitall(reqs);
      env.report("a0", a[0]);
      env.report("b0", b[0]);
    }
  });
  EXPECT_DOUBLE_EQ(r.values.at("a0"), 1.0);
  EXPECT_DOUBLE_EQ(r.values.at("b0"), 2.0);
}

TEST(P2P, SendrecvExchanges) {
  auto r = mpi::run_job(cfg(2), [](mpi::RankEnv& env) {
    auto& c = env.world();
    double mine = c.rank() + 1.0, theirs = 0.0;
    const int other = 1 - c.rank();
    c.sendrecv(other, 7, &mine, 1, other, 7, &theirs, 1);
    env.report("r" + std::to_string(c.rank()), theirs);
  });
  EXPECT_DOUBLE_EQ(r.values.at("r0"), 2.0);
  EXPECT_DOUBLE_EQ(r.values.at("r1"), 1.0);
}

TEST(P2P, ModelModeNullBuffersMoveTimeNotData) {
  auto r = mpi::run_job(cfg(2), [](mpi::RankEnv& env) {
    auto& c = env.world();
    if (c.rank() == 0) {
      c.send_bytes(1, 1, nullptr, 1 << 20);
    } else {
      c.recv_bytes(0, 1, nullptr, 1 << 20);
    }
  });
  // A 1 MB transfer over QDR IB takes ~0.3 ms of virtual time.
  EXPECT_GT(r.elapsed_seconds, 1e-4);
  EXPECT_LT(r.elapsed_seconds, 1e-2);
}

TEST(P2P, MissingSenderDeadlocks) {
  EXPECT_THROW(mpi::run_job(cfg(2),
                            [](mpi::RankEnv& env) {
                              if (env.rank() == 1) {
                                double x;
                                env.world().recv(0, 1, &x, 1);
                              }
                            }),
               cirrus::sim::DeadlockError);
}

TEST(P2P, TimeIsDeterministicAcrossRuns) {
  auto body = [](mpi::RankEnv& env) {
    auto& c = env.world();
    std::vector<double> buf(1000, env.rank());
    for (int iter = 0; iter < 5; ++iter) {
      env.compute(0.001);
      const int other = 1 - c.rank();
      c.sendrecv(other, iter, buf.data(), buf.size(), other, iter, buf.data(), buf.size());
    }
  };
  const auto a = mpi::run_job(cfg(2, plat::dcc()), body);
  const auto b = mpi::run_job(cfg(2, plat::dcc()), body);
  EXPECT_DOUBLE_EQ(a.elapsed_seconds, b.elapsed_seconds);
}

TEST(P2P, InterNodeSlowerThanIntraNode) {
  auto time_with = [](int dst) {
    auto c2 = cfg(16, plat::dcc());
    auto r = mpi::run_job(c2, [dst](mpi::RankEnv& env) {
      auto& c = env.world();
      std::vector<double> buf(8192);
      // rank0 <-> dst ping-pong (dst 1: same node; dst 8: across GigE)
      for (int i = 0; i < 10; ++i) {
        if (c.rank() == 0) {
          c.send(dst, i, buf.data(), buf.size());
          c.recv(dst, i, buf.data(), buf.size());
        } else if (c.rank() == dst) {
          c.recv(0, i, buf.data(), buf.size());
          c.send(0, i, buf.data(), buf.size());
        }
      }
    });
    return r.elapsed_seconds;
  };
  EXPECT_GT(time_with(8), 3 * time_with(1));
}
