// NPB IS (Integer Sort): parallel bucket sort of uniformly distributed
// integer keys. Per iteration: local bucketing, an allreduce of the global
// bucket histogram, an alltoallv redistributing every key to its owner, and
// a local counting sort. The benchmark is communication-bound (its entire
// working set crosses the network every iteration), which is why it scales
// poorly on every platform in the paper's Fig 4 and shows the highest %comm
// in Table II.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "npb/npb.hpp"
#include "npb/randlc.hpp"

namespace cirrus::npb {

namespace {

struct IsParams {
  int log_n;     // total keys = 2^log_n
  int log_maxkey;
};

IsParams is_params(Class cls) {
  switch (cls) {
    case Class::T: return {12, 9};
    case Class::S: return {16, 11};
    case Class::W: return {20, 16};
    case Class::A: return {23, 19};
    case Class::B: return {25, 21};
    case Class::C: return {27, 23};
  }
  return {16, 11};
}

constexpr int kIterations = 10;
constexpr int kLogBuckets = 10;

}  // namespace

BenchResult run_is(mpi::RankEnv& env, Class cls) {
  auto& comm = env.world();
  const int np = comm.size();
  const int rank = comm.rank();
  const auto prm = is_params(cls);
  const long long total_keys = 1LL << prm.log_n;
  const int max_key = 1 << prm.log_maxkey;
  // At most 2^10 buckets, but never more buckets than key values.
  const int bucket_shift = std::max(0, prm.log_maxkey - kLogBuckets);
  const int n_buckets = 1 << (prm.log_maxkey - bucket_shift);
  const long long my_first = total_keys * rank / np;
  const long long my_last = total_keys * (rank + 1) / np;  // exclusive
  const auto my_keys_n = static_cast<std::size_t>(my_last - my_first);
  const double ref_iter = benchmark("IS").ref_seconds(cls) / kIterations;

  std::vector<std::int32_t> keys;
  if (env.execute()) {
    // NPB key generation: key = floor(maxkey/4 * (r1+r2+r3+r4)), four
    // consecutive randlc deviates per key; seek to this rank's slice so the
    // global key sequence is independent of np.
    keys.resize(my_keys_n);
    double seed = seek_seed(kRandlcSeed, kRandlcA, 4 * my_first);
    const double k4 = static_cast<double>(max_key) / 4.0;
    for (auto& k : keys) {
      double s = 0;
      for (int j = 0; j < 4; ++j) s += randlc(seed, kRandlcA);
      k = static_cast<std::int32_t>(k4 * s);
    }
  }

  std::vector<std::int32_t> my_sorted;  // keys owned after redistribution
  double key_sum_check = 0;

  for (int iter = 1; iter <= kIterations; ++iter) {
    // NPB modifies two keys per iteration to defeat caching of results.
    if (env.execute()) {
      const long long i1 = iter;
      const long long i2 = iter + kIterations;
      if (i1 >= my_first && i1 < my_last) {
        keys[static_cast<std::size_t>(i1 - my_first)] = iter;
      }
      if (i2 >= my_first && i2 < my_last) {
        keys[static_cast<std::size_t>(i2 - my_first)] =
            static_cast<std::int32_t>(max_key - iter);
      }
    }

    // --- local histogram + global histogram (Allreduce) ---
    std::vector<double> hist(static_cast<std::size_t>(n_buckets), 0.0);
    if (env.execute()) {
      for (const auto k : keys) hist[static_cast<std::size_t>(k >> bucket_shift)] += 1.0;
    } else {
      // Uniform keys: even expected bucket occupancy.
      const double per =
          static_cast<double>(my_keys_n) / static_cast<double>(n_buckets);
      for (auto& h : hist) h = per;
    }
    env.compute(ref_iter * 0.15 * static_cast<double>(my_keys_n) /
                static_cast<double>(total_keys));
    std::vector<double> ghist(static_cast<std::size_t>(n_buckets), 0.0);
    comm.allreduce(hist.data(), ghist.data(), hist.size(), mpi::Op::Sum);

    // --- bucket -> owner map: balanced prefix split ---
    std::vector<int> owner(static_cast<std::size_t>(n_buckets), 0);
    {
      double cum = 0;
      const double per_rank = static_cast<double>(total_keys) / np;
      for (int b = 0; b < n_buckets; ++b) {
        owner[static_cast<std::size_t>(b)] =
            std::min(np - 1, static_cast<int>(cum / per_rank));
        cum += ghist[static_cast<std::size_t>(b)];
      }
    }

    // --- redistribute keys to owners (Alltoallv) ---
    std::vector<std::size_t> send_counts(static_cast<std::size_t>(np), 0);
    std::vector<std::int32_t> send_buf;
    if (env.execute()) {
      std::vector<std::size_t> offsets(static_cast<std::size_t>(np) + 1, 0);
      for (const auto k : keys) {
        ++send_counts[static_cast<std::size_t>(owner[static_cast<std::size_t>(k >> bucket_shift)])];
      }
      for (int r = 0; r < np; ++r) {
        offsets[static_cast<std::size_t>(r + 1)] =
            offsets[static_cast<std::size_t>(r)] + send_counts[static_cast<std::size_t>(r)];
      }
      send_buf.resize(keys.size());
      std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
      for (const auto k : keys) {
        const int o = owner[static_cast<std::size_t>(k >> bucket_shift)];
        send_buf[cursor[static_cast<std::size_t>(o)]++] = k;
      }
      for (auto& c : send_counts) c *= sizeof(std::int32_t);
    } else {
      for (auto& c : send_counts) {
        c = my_keys_n / static_cast<std::size_t>(np) * sizeof(std::int32_t);
      }
    }
    // Recv counts: rank r gets the keys of the buckets it owns. All ranks
    // can derive everyone's counts from the (replicated) global histogram in
    // execute mode; in model mode counts are symmetric.
    std::vector<std::size_t> recv_counts(static_cast<std::size_t>(np), 0);
    if (env.execute()) {
      // Exchange exact counts (NPB uses an alltoall of send sizes).
      std::vector<std::size_t> sc(send_counts);
      comm.alltoall(sc.data(), recv_counts.data(), 1);
    } else {
      recv_counts = send_counts;
    }
    std::size_t recv_total = 0;
    for (auto c : recv_counts) recv_total += c;
    // Model mode moves sized but dataless messages: no receive buffer.
    std::vector<std::int32_t> recv_buf(env.execute() ? recv_total / sizeof(std::int32_t) : 0);
    comm.alltoallv_bytes(env.execute() ? send_buf.data() : nullptr, send_counts,
                         env.execute() ? recv_buf.data() : nullptr, recv_counts);

    // --- local ranking: counting sort of the received keys ---
    if (env.execute()) {
      int lo = max_key, hi = 0;
      for (int b = 0; b < n_buckets; ++b) {
        if (owner[static_cast<std::size_t>(b)] == rank) {
          lo = std::min(lo, b << bucket_shift);
          hi = std::max(hi, ((b + 1) << bucket_shift));
        }
      }
      if (lo > hi) lo = hi;
      std::vector<std::int32_t> counts(static_cast<std::size_t>(hi - lo + 1), 0);
      for (const auto k : recv_buf) ++counts[static_cast<std::size_t>(k - lo)];
      my_sorted.clear();
      my_sorted.reserve(recv_buf.size());
      for (std::size_t v = 0; v < counts.size(); ++v) {
        for (std::int32_t c = 0; c < counts[v]; ++c) {
          my_sorted.push_back(static_cast<std::int32_t>(lo + static_cast<std::int32_t>(v)));
        }
      }
    }
    env.compute(ref_iter * 0.85 * static_cast<double>(my_keys_n) /
                static_cast<double>(total_keys));
  }

  // --- full verification ---
  BenchResult result;
  result.name = "IS";
  result.cls = cls;
  result.np = np;
  if (env.execute()) {
    bool ok = std::is_sorted(my_sorted.begin(), my_sorted.end());
    // Boundary check with the right neighbour: my max <= their min.
    std::int32_t my_max = my_sorted.empty() ? -1 : my_sorted.back();
    std::int32_t their_max = -1;
    if (np > 1) {
      if (rank + 1 < np) comm.send(rank + 1, 777, &my_max, 1);
      if (rank > 0) {
        comm.recv(rank - 1, 777, &their_max, 1);
        if (!my_sorted.empty() && their_max > my_sorted.front()) ok = false;
      }
    }
    double local_n = static_cast<double>(my_sorted.size());
    double local_sum = 0;
    for (const auto k : my_sorted) local_sum += k;
    const double global_n = comm.allreduce_one(local_n, mpi::Op::Sum);
    key_sum_check = comm.allreduce_one(local_sum, mpi::Op::Sum);
    ok = ok && static_cast<long long>(global_n) == total_keys;
    const double all_ok = comm.allreduce_one(ok ? 1.0 : 0.0, mpi::Op::Min);
    result.verified = all_ok > 0.5;
  } else {
    result.verified = true;
  }
  result.verification_value = key_sum_check;
  if (rank == 0) env.report("is_key_sum", key_sum_check);
  return result;
}

}  // namespace cirrus::npb
