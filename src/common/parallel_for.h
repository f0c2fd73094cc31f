#ifndef RSMI_COMMON_PARALLEL_FOR_H_
#define RSMI_COMMON_PARALLEL_FOR_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

namespace rsmi {

/// Fork-join: runs fn(0), ..., fn(jobs - 1) on min(workers, jobs) threads
/// that claim jobs from a shared counter, and returns once all are done.
/// With one worker the jobs run inline on the calling thread, in order.
/// Jobs must not share mutable state beyond their own output slots. If
/// jobs throw, every worker still joins and the first worker's exception
/// is rethrown on the calling thread (never std::terminate).
template <typename Fn>
void ParallelFor(size_t jobs, int workers, Fn&& fn) {
  const size_t n = std::min(jobs, static_cast<size_t>(std::max(workers, 1)));
  if (n <= 1) {
    for (size_t i = 0; i < jobs; ++i) fn(i);
    return;
  }
  std::atomic<size_t> next{0};
  std::vector<std::exception_ptr> errors(n);
  std::vector<std::thread> pool;
  pool.reserve(n);
  for (size_t w = 0; w < n; ++w) {
    pool.emplace_back([&, w] {
      try {
        for (size_t i = next.fetch_add(1); i < jobs; i = next.fetch_add(1)) {
          fn(i);
        }
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e != nullptr) std::rethrow_exception(e);
  }
}

}  // namespace rsmi

#endif  // RSMI_COMMON_PARALLEL_FOR_H_
