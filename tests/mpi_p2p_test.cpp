// Point-to-point semantics of minimpi: matching, ordering, protocols,
// non-blocking requests, model mode and deadlock detection.
#include "mpi/minimpi.hpp"

#include <gtest/gtest.h>

#include <array>
#include <iomanip>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/chaste/chaste.hpp"
#include "npb/npb.hpp"

namespace mpi = cirrus::mpi;
namespace npb = cirrus::npb;
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

TEST(P2P, SendOutsideTheCommunicatorThrows) {
  // Checked in every build, not only by assert: a destination of np or -1
  // fails the job with a message naming the rank and np, for a blocking
  // send, an isend and a sendrecv alike, while the peer is still blocked.
  for (const int dst : {2, -1}) {
    for (int call = 0; call < 3; ++call) {
      SCOPED_TRACE("dst " + std::to_string(dst) + ", call " + std::to_string(call));
      try {
        mpi::run_job(cfg(2), [dst, call](mpi::RankEnv& env) {
          auto& c = env.world();
          double x = 1.0, y = 0.0;
          if (c.rank() == 1) {
            c.recv(0, 1, &y, 1);
          } else if (call == 0) {
            c.send(dst, 1, &x, 1);
          } else if (call == 1) {
            (void)c.isend(dst, 1, &x, 1);
          } else {
            c.sendrecv(dst, 1, &x, 1, 1, 1, &y, 1);
          }
        });
        ADD_FAILURE() << "expected std::invalid_argument";
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("rank " + std::to_string(dst)), std::string::npos) << what;
        EXPECT_NE(what.find("np=2"), std::string::npos) << what;
      }
    }
  }
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

// ---------------------------------------------------------------------------
// Exactness of sendrecv timing. An eager sendrecv whose NIC is busy resumes
// at the later of its sender-free time and its receive's completion; the
// expected strings were captured from the simulator before sendrecv waited
// for both at once, so any change to the event stream, the clock or IPM's
// per-rank totals shows up here.
// ---------------------------------------------------------------------------

namespace {

/// The job's clock, event count and, per rank, IPM's wall, compute, user and
/// system communication, I/O and MPI call totals.
std::string fingerprint(const mpi::JobResult& r) {
  std::ostringstream o;
  o << "t=" << std::setprecision(17) << r.elapsed_seconds << " ev=" << r.events_processed;
  for (const auto& rec : r.ipm.recorders()) {
    const auto& t = rec.totals();
    o << " |" << rec.wall() << ' ' << t.comp << ' ' << t.comm_user << ' ' << t.comm_sys << ' '
      << t.io << ' ' << t.mpi_calls;
  }
  return o.str();
}

/// One sendrecv between two ranks sharing a node (shared-memory copies at
/// 0.4 ns/byte, 900 ns latency) after rank `late` computes `skew_ns`. The
/// platform's compute model is made exact so the skew is exactly skew_ns.
std::string exchange(int late, double skew_ns, std::size_t bytes0, std::size_t bytes1) {
  auto c = cfg(2, plat::dcc());
  c.platform.compute.jitter_sigma = 0.0;
  c.platform.compute.virt_overhead = 1.0;
  c.traits.mem_intensity = 0.0;
  const auto r = mpi::run_job(c, [=](mpi::RankEnv& env) {
    auto& w = env.world();
    const int other = 1 - w.rank();
    if (w.rank() == late) env.compute(skew_ns * 1e-9);
    const std::size_t mine = w.rank() == 0 ? bytes0 : bytes1;
    const std::size_t theirs = w.rank() == 0 ? bytes1 : bytes0;
    w.sendrecv_bytes(other, 3, nullptr, mine, other, 3, nullptr, theirs);
    env.compute(1e-6);
  });
  return fingerprint(r);
}

}  // namespace

TEST(SendrecvExactness, PartnerMessageBeforeAtAndAfterSenderFree) {
  // Rank 0's own copy frees its sender 0.4 ns/byte after it starts; rank 1's
  // message lands copy + 900 ns after rank 1 starts.
  struct Case {
    const char* what;
    int late;
    double skew_ns;
    std::size_t bytes0, bytes1;
    const char* want;
  };
  const Case cases[] = {
      // Lands at 1300, rank 0 frees at 1500: before sender-free.
      {"before", 0, 1100, 1000, 1000,
       "t=3.4000000000000001e-06 ev=10 |2500 2100 380 20 0 1 |3400 1000 2280 120 0 1"},
      // Both at 1300; the delivery was scheduled first.
      {"same ns, delivery first", 0, 900, 1000, 1000,
       "t=3.2000000000000003e-06 ev=10 |2300 1900 380 20 0 1 |3200 1000 2090 110 0 1"},
      // Both at 1600; rank 0's sender-free wake was due first.
      {"same ns, sender-free first", 1, 600, 4000, 250,
       "t=3.5000000000000004e-06 ev=11 |2600 1000 1520 80 0 1 |3500 1600 1805 95 0 1"},
      // Lands at 1300, rank 0 freed at 400: after sender-free.
      {"after", 0, 0, 1000, 1000,
       "t=2.3e-06 ev=10 |2300 1000 1235 65 0 1 |2300 1000 1235 65 0 1"},
      // Lands at 1300, before rank 0 even posts at 2000.
      {"already arrived", 0, 2000, 1000, 1000,
       "t=4.3000000000000003e-06 ev=10 |3400 3000 380 20 0 1 |4300 1000 3135 165 0 1"},
      // Rendezvous on both sides: no sender-free wake at all.
      {"rendezvous", 1, 500, 64 * 1024, 64 * 1024,
       "t=3.0414000000000001e-05 ev=15 |30414 1000 27944 1470 0 1 |29914 1500 26994 1420 0 1"},
  };
  for (const Case& k : cases) {
    EXPECT_EQ(exchange(k.late, k.skew_ns, k.bytes0, k.bytes1), k.want) << k.what;
  }
}

TEST(SendrecvExactness, ModelModeCgAndChasteOnDcc) {
  const auto cg = npb::run_benchmark("CG", npb::Class::S, plat::dcc(), 4, /*execute=*/false);
  EXPECT_EQ(fingerprint(cg),
            "t=0.294657683 ev=23482 |294656783 286514244 4188671 3953868 0 1200 "
            "|294657133 286930792 4021533 3704808 0 1200 "
            "|294657683 286785810 4088441 3783432 0 1200 "
            "|294656783 287264534 3916735 3475514 0 1200")
      << "CG.S.4/dcc";

  mpi::JobConfig c;
  c.platform = plat::dcc();
  c.np = 4;
  c.execute = false;
  c.traits = cirrus::chaste::traits();
  c.name = "chaste";
  const auto chaste = mpi::run_job(c, [](mpi::RankEnv& env) { cirrus::chaste::run(env); });
  EXPECT_EQ(fingerprint(chaste),
            "t=2083.012887244 ev=625743 "
            "|2082999553911 2003224278400 46930611719 16568785093 16275878699 30250 "
            "|2083012887244 2004331138432 38841077190 15888674609 23951997013 30250 "
            "|2082972887245 2007029033139 28956829455 15358916524 31628108127 30250 "
            "|2082986220578 2005422721903 23123565590 15135706644 39304226441 30250")
      << "Chaste/4/dcc";
}

// ---- byte exactness of the small-message path ----
// Eager payloads of up to 16 bytes ride inside their envelope and are copied
// with fixed-size word moves; 17 bytes and up take a pooled buffer. Every
// size around the word edges must arrive byte for byte, on every path, and
// never write past the receive buffer.

namespace {

constexpr std::size_t kSmallSizes[] = {1, 7, 8, 9, 15, 16, 17};
constexpr std::size_t kGuard = 8;
constexpr std::byte kSentinel{0xEE};

/// Byte i of the message rank `from` sends: never the sentinel, and
/// different from its neighbours, so a shifted or partial copy shows.
std::byte pattern(int from, std::size_t i) {
  return static_cast<std::byte>((from * 31 + static_cast<int>(i) * 7) % 200 + 1);
}

std::vector<std::byte> message(int from, std::size_t n) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = pattern(from, i);
  return v;
}

/// A receive buffer of `n` bytes followed by kGuard sentinel bytes.
std::vector<std::byte> landing(std::size_t n) {
  return std::vector<std::byte>(n + kGuard, kSentinel);
}

/// Mismatches of `buf` against the first `copied` bytes of `from`'s message,
/// plus any byte past `copied` that is no longer the sentinel.
int mismatches(const std::vector<std::byte>& buf, int from, std::size_t copied) {
  int bad = 0;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    bad += buf[i] != (i < copied ? pattern(from, i) : kSentinel);
  }
  return bad;
}

std::uint64_t counter(const mpi::JobResult& r, const std::string& name) {
  for (const auto& [k, v] : r.telemetry->registry.counter_values()) {
    if (k == name) return v;
  }
  ADD_FAILURE() << "no counter " << name;
  return 0;
}

mpi::JobConfig counted(int np) {
  mpi::JobConfig c = cfg(np);
  c.telemetry.enabled = true;
  return c;
}

}  // namespace

TEST(SmallPayload, PostedAndUnexpectedReceivesAreByteExact) {
  for (const std::size_t n : kSmallSizes) {
    for (const bool receiver_first : {true, false}) {
      const auto r = mpi::run_job(counted(2), [n, receiver_first](mpi::RankEnv& env) {
        auto& c = env.world();
        if (c.rank() == 0) {
          if (receiver_first) env.compute(0.001);
          const auto msg = message(0, n);
          c.send_bytes(1, 4, msg.data(), n);
        } else {
          if (!receiver_first) env.compute(0.001);
          auto buf = landing(n);
          c.recv_bytes(0, 4, buf.data(), n);
          env.report("bad", mismatches(buf, 0, n));
        }
      });
      const std::string what =
          "n=" + std::to_string(n) + (receiver_first ? " posted" : " unexpected");
      EXPECT_EQ(r.values.at("bad"), 0) << what;
      EXPECT_EQ(counter(r, receiver_first ? "mpi_recvs_matched_posted"
                                          : "mpi_recvs_matched_unexpected"),
                1u)
          << what;
    }
  }
}

TEST(SmallPayload, SendrecvIsByteExact) {
  for (const std::size_t n : kSmallSizes) {
    const auto r = mpi::run_job(cfg(3), [n](mpi::RankEnv& env) {
      auto& c = env.world();
      const int right = (c.rank() + 1) % 3;
      const int left = (c.rank() + 2) % 3;
      const auto msg = message(c.rank(), n);
      auto buf = landing(n);
      c.sendrecv_bytes(right, 6, msg.data(), n, left, 6, buf.data(), n);
      env.report("bad" + std::to_string(c.rank()), mismatches(buf, left, n));
    });
    for (int rk = 0; rk < 3; ++rk) {
      EXPECT_EQ(r.values.at("bad" + std::to_string(rk)), 0) << "n=" << n << " rank " << rk;
    }
  }
}

TEST(SmallPayload, IsendIrecvIsByteExact) {
  for (const std::size_t n : kSmallSizes) {
    const auto r = mpi::run_job(cfg(2), [n](mpi::RankEnv& env) {
      auto& c = env.world();
      const int other = 1 - c.rank();
      // Two messages each way on different tags, received in reverse order.
      const auto a = message(c.rank(), n);
      const auto b = message(c.rank() + 2, n);
      auto got_a = landing(n);
      auto got_b = landing(n);
      std::array<mpi::Request, 4> reqs{c.irecv_bytes(other, 2, got_b.data(), n),
                                       c.irecv_bytes(other, 1, got_a.data(), n),
                                       c.isend_bytes(other, 1, a.data(), n),
                                       c.isend_bytes(other, 2, b.data(), n)};
      c.waitall(reqs);
      env.report("bad" + std::to_string(c.rank()),
                 mismatches(got_a, other, n) + mismatches(got_b, other + 2, n));
    });
    EXPECT_EQ(r.values.at("bad0"), 0) << "n=" << n;
    EXPECT_EQ(r.values.at("bad1"), 0) << "n=" << n;
  }
}

TEST(SmallPayload, TruncatedReceiveLeavesBytesPastItsBufferUntouched) {
  struct Case {
    std::size_t sent, room;
  };
  // Inline (1..16) and pooled (17, 40) payloads into shorter buffers.
  for (const Case k : {Case{3, 1}, Case{8, 5}, Case{16, 9}, Case{17, 16}, Case{40, 7}}) {
    for (const bool receiver_first : {true, false}) {
      const auto r = mpi::run_job(cfg(2), [k, receiver_first](mpi::RankEnv& env) {
        auto& c = env.world();
        if (c.rank() == 0) {
          if (receiver_first) env.compute(0.001);
          const auto msg = message(0, k.sent);
          c.send_bytes(1, 9, msg.data(), k.sent);
        } else {
          if (!receiver_first) env.compute(0.001);
          auto buf = landing(k.room);
          c.recv_bytes(0, 9, buf.data(), k.room);
          env.report("bad", mismatches(buf, 0, k.room));
        }
      });
      EXPECT_EQ(r.values.at("bad"), 0)
          << k.sent << " bytes into " << k.room << (receiver_first ? " posted" : " unexpected");
    }
  }
}
