#include "core/driver.hpp"

#include <atomic>
#include <exception>
#include <thread>

namespace cirrus::core {

int default_parallelism() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body, int jobs) {
  if (n == 0) return;
  if (jobs <= 0) jobs = default_parallelism();
  if (static_cast<std::size_t>(jobs) > n) jobs = static_cast<int>(n);
  if (jobs <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(n);
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        body(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(jobs - 1));
  for (int t = 1; t < jobs; ++t) pool.emplace_back(worker);
  worker();  // the calling thread is worker 0
  for (auto& th : pool) th.join();

  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace cirrus::core
