// Unit tests for the pluggable shared-storage backends (src/storage).
//
// The load-bearing property: the NFS backend must reproduce the legacy
// net::FileSystem arithmetic bit for bit — every determinism golden and
// reference pin in the repo was minted against that model.
#include "storage/storage.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <vector>

#include "apps/metum/metum.hpp"
#include "mpi/minimpi.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"

namespace mpi = cirrus::mpi;
namespace net = cirrus::net;
namespace plat = cirrus::plat;
namespace sim = cirrus::sim;
namespace storage = cirrus::storage;

TEST(StorageModel, BackendStringsRoundTrip) {
  EXPECT_EQ(storage::backend_from_string("nfs"), storage::Backend::Nfs);
  EXPECT_EQ(storage::backend_from_string("Lustre"), storage::Backend::Lustre);
  EXPECT_EQ(storage::backend_from_string("object"), storage::Backend::Object);
  EXPECT_EQ(storage::backend_from_string("s3"), storage::Backend::Object);
  EXPECT_THROW(storage::backend_from_string("gpfs"), std::invalid_argument);
  EXPECT_STREQ(storage::to_string(storage::Backend::Nfs), "nfs");
  EXPECT_STREQ(storage::to_string(storage::Backend::Lustre), "lustre");
  EXPECT_STREQ(storage::to_string(storage::Backend::Object), "object");
}

TEST(StorageModel, NfsModelMirrorsPlatformFsScalars) {
  for (const auto& p : plat::study_platforms()) {
    const auto m = storage::model_for(p, storage::Backend::Nfs);
    EXPECT_EQ(m.name, p.fs.name);
    EXPECT_EQ(m.read_Bps, p.fs.read_Bps);
    EXPECT_EQ(m.write_Bps, p.fs.write_Bps);
    EXPECT_EQ(m.open_latency_ms, p.fs.open_latency_ms);
    EXPECT_EQ(m.servers, 1);
  }
}

// The crossbar-equivalence pin: an arbitrary interleaving of reads, writes
// and opens must complete at exactly the same integer nanoseconds as the
// legacy single-server FileSystem, including the queueing behaviour.
TEST(StorageService, NfsIsBitIdenticalToLegacyFileSystem) {
  for (const auto& p : plat::study_platforms()) {
    sim::Engine eng_legacy, eng_nfs;
    net::FileSystem legacy(eng_legacy, p.fs);
    storage::Service nfs(eng_nfs, storage::model_for(p, storage::Backend::Nfs));

    const struct {
      sim::SimTime at;
      std::size_t bytes;
      bool write, open;
    } ops[] = {
        {0, 4096, false, true},         {0, 1 << 20, true, false},
        {1000, 0, false, true},         {2'000'000, 64 << 20, false, false},
        {2'000'000, 512, true, true},   {50'000'000, 123457, false, false},
        {3'000'000'000, 1, true, true}, {3'000'000'001, 8 << 20, false, true},
    };
    // Each op is issued from an engine event at its timestamp, so both
    // models price it on their engine's clock.
    std::vector<sim::SimTime> a, b;
    for (const auto& op : ops) {
      eng_legacy.schedule_at(op.at, [&legacy, &a, op] {
        a.push_back(op.write ? legacy.write(op.bytes, op.open) : legacy.read(op.bytes, op.open));
      });
      eng_nfs.schedule_at(op.at, [&nfs, &b, op] {
        b.push_back(op.write ? nfs.write(op.bytes, op.open) : nfs.read(op.bytes, op.open));
      });
    }
    eng_legacy.run();
    eng_nfs.run();
    ASSERT_EQ(a.size(), std::size(ops));
    EXPECT_EQ(a, b) << p.name;
  }
}

TEST(StorageService, StatsCountOperationsAndBytes) {
  sim::Engine eng;
  storage::Service svc(eng, storage::model_for(plat::dcc(), storage::Backend::Nfs));
  svc.read(1000, true);
  svc.write(500, false);
  svc.read(200, true);
  const auto& s = svc.stats();
  EXPECT_EQ(s.reads, 2U);
  EXPECT_EQ(s.writes, 1U);
  EXPECT_EQ(s.opens, 2U);
  EXPECT_EQ(s.bytes_read, 1200U);
  EXPECT_EQ(s.bytes_written, 500U);
  EXPECT_GT(s.busy, 0);
}

// One stripe-sized request touches one OSS; a request spanning all servers
// finishes faster than the single-server NFS would serve it.
TEST(StorageService, LustreStripesAcrossServers) {
  const auto p = plat::vayu();
  sim::Engine eng;
  const auto model = storage::model_for(p, storage::Backend::Lustre);
  ASSERT_GT(model.servers, 1);
  storage::Service lustre(eng, model);

  const std::size_t big = model.stripe_bytes * static_cast<std::size_t>(model.servers);
  const sim::SimTime striped = lustre.read(big, false);
  // All stripes run in parallel: total time ~ one stripe's serialisation,
  // far below big/one-server-bandwidth.
  const sim::SimTime serial = sim::from_seconds(static_cast<double>(big) / model.read_Bps);
  EXPECT_LT(striped, serial / 2);
}

TEST(StorageService, LustreOpenPaysMdsOnce) {
  const auto p = plat::vayu();
  sim::Engine eng;
  const auto model = storage::model_for(p, storage::Backend::Lustre);
  storage::Service lustre(eng, model);
  const sim::SimTime no_open = lustre.read(0, false);
  EXPECT_EQ(no_open, 0);
  storage::Service fresh(eng, model);
  const sim::SimTime with_open = fresh.read(0, true);
  EXPECT_EQ(with_open, sim::from_seconds(model.open_latency_ms * 1e-3));
}

// Every object request pays the first-byte latency; independent requests
// spread over the front ends instead of queueing on one server.
TEST(StorageService, ObjectStorePaysPerRequestLatencyButScalesOut) {
  const auto p = plat::ec2();
  sim::Engine eng;
  const auto model = storage::model_for(p, storage::Backend::Object);
  storage::Service object(eng, model);

  const sim::SimTime first = object.read(0, false);
  EXPECT_EQ(first, sim::from_seconds(model.open_latency_ms * 1e-3));

  // n_servers concurrent requests at t=0 all finish at the same time (one
  // per front end); request n_servers+1 queues behind the least loaded.
  storage::Service fresh(eng, model);
  const std::size_t bytes = 1 << 20;
  sim::SimTime done = 0;
  for (int i = 0; i < model.servers; ++i) done = fresh.read(bytes, false);
  const sim::SimTime one = sim::from_seconds(model.open_latency_ms * 1e-3) +
                           sim::from_seconds(static_cast<double>(bytes) / model.read_Bps);
  EXPECT_EQ(done, one);
  EXPECT_EQ(fresh.read(bytes, false), 2 * one);
}

// Job-level sanity on a workload with real file I/O (MetUM reads its start
// dump through the shared filesystem): each backend is deterministic across
// repeat runs, and swapping the backend genuinely moves I/O completion times.
TEST(StorageService, JobLevelBackendSwapIsDeterministic) {
  const auto run = [](storage::Backend b) {
    mpi::JobConfig cfg;
    cfg.platform = plat::dcc();
    cfg.np = 4;
    cfg.seed = 7;
    cfg.execute = false;
    cfg.traits = cirrus::metum::traits();
    cfg.storage_backend = b;
    return mpi::run_job(cfg, [](mpi::RankEnv& env) { cirrus::metum::run(env); });
  };
  std::map<storage::Backend, double> elapsed;
  for (const auto b :
       {storage::Backend::Nfs, storage::Backend::Lustre, storage::Backend::Object}) {
    const auto first = run(b);
    const auto again = run(b);
    EXPECT_EQ(first.events_processed, again.events_processed) << storage::to_string(b);
    EXPECT_EQ(first.elapsed_seconds, again.elapsed_seconds) << storage::to_string(b);
    EXPECT_EQ(first.storage_stats.reads, again.storage_stats.reads);
    EXPECT_EQ(first.storage_stats.busy, again.storage_stats.busy);
    EXPECT_GT(first.storage_stats.reads, 0U);
    elapsed[b] = first.elapsed_seconds;
  }
  // The object store's per-request latency is paid on every dump read.
  EXPECT_NE(elapsed[storage::Backend::Nfs], elapsed[storage::Backend::Object]);
}
