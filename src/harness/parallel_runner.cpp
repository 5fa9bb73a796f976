#include "harness/parallel_runner.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>

namespace ecgrid::harness {

std::vector<ScenarioResult> runScenariosParallel(
    const std::vector<ScenarioConfig>& configs, unsigned jobs,
    std::vector<std::exception_ptr>& failures) {
  const std::size_t count = configs.size();
  std::vector<ScenarioResult> results(count);
  failures.assign(count, nullptr);

  if (jobs <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) {
      try {
        results[i] = runScenario(configs[i]);
      } catch (...) {
        failures[i] = std::current_exception();
      }
    }
    return results;
  }

  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(jobs, count));
  // Work distribution: one atomic ticket counter; each worker owns the
  // results/failures slots whose tickets it drew, so writes never alias
  // and the thread joins below publish them to the caller.
  std::atomic<std::size_t> next{0};

  auto worker = [&] {
    while (true) {
      std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        results[i] = runScenario(configs[i]);
      } catch (...) {
        failures[i] = std::current_exception();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return results;
}

}  // namespace ecgrid::harness
