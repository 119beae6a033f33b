// A deterministic thread-pool runner for embarrassingly parallel experiment
// sweeps.
//
// Each sweep point runs its own single-threaded sim::Engine, so points are
// independent by construction; the driver farms indices out to worker threads
// and stores every result at its own index. Output is therefore in stable
// index order and byte-identical regardless of the worker count — including
// jobs=1, which runs inline on the calling thread with no pool at all.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace cirrus::core {

/// Worker count used when a caller passes jobs <= 0: the number of hardware
/// threads (1 if that is unknown).
int default_parallelism();

/// Invokes body(i) exactly once for every i in [0, n) on up to `jobs`
/// threads (jobs <= 0 means default_parallelism()). Indices are claimed from
/// an atomic counter, so threads never contend on shared results; callers
/// must make body(i) write only to per-index state.
///
/// If bodies throw, the exception for the *lowest* index is rethrown after
/// all workers drain — the same exception a serial loop would surface —
/// so error behaviour is also independent of the worker count.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body, int jobs = 0);

/// Maps f over [0, n) with parallel_for and returns the results in index
/// order. R must be default-constructible and assignable.
template <typename R, typename F>
std::vector<R> run_sweep(std::size_t n, F&& f, int jobs = 0) {
  std::vector<R> out(n);
  parallel_for(
      n, [&](std::size_t i) { out[i] = f(i); }, jobs);
  return out;
}

}  // namespace cirrus::core
