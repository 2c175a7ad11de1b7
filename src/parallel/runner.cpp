#include "rrb/parallel/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "rrb/common/check.hpp"
#include "rrb/telemetry/telemetry.hpp"

namespace rrb {

namespace {

/// $RRB_THREADS as a positive int, or 0 when unset/unparseable. Malformed
/// values fall back to auto-detection rather than aborting a long sweep.
int env_threads() {
  // rrb-lint: allow-next-line(no-nondeterminism-sources) — the thread count
  // only schedules work; the (seed, i) contract keeps outputs identical for
  // every value, so this env read can never reach a recorded artifact.
  const char* raw = std::getenv("RRB_THREADS");
  if (raw == nullptr || *raw == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(raw, &end, 10);
  if (end == raw || *end != '\0' || v < 1 || v > 65536) return 0;
  return static_cast<int>(v);
}

/// Set on every pool worker for its lifetime: a for_each_trial reached from
/// inside a worker runs inline instead of starting a nested pool.
thread_local bool t_pool_worker = false;

}  // namespace

ParallelRunner::ParallelRunner(RunnerConfig config) : config_(config) {
  RRB_REQUIRE(config_.threads >= 0, "RunnerConfig.threads must be >= 0");
  RRB_REQUIRE(config_.batch >= 0, "RunnerConfig.batch must be >= 0");
}

int ParallelRunner::resolve_threads(const RunnerConfig& config) {
  if (config.threads > 0) return config.threads;
  if (const int env = env_threads(); env > 0) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int ParallelRunner::workers_for(int trials) const {
  return t_pool_worker ? 1 : std::min(trials, resolve_threads(config_));
}

void ParallelRunner::for_each_trial(
    int trials, const std::function<void(int)>& fn) const {
  RRB_REQUIRE(trials >= 0, "trials must be >= 0");
  RRB_REQUIRE(fn != nullptr, "for_each_trial needs a callable");
  if (trials == 0) return;

  const int workers = workers_for(trials);

  telemetry::Span pool_span("runner", "for_each_trial");
  if (pool_span.active())
    pool_span.set_args("{\"trials\":" + std::to_string(trials) +
                       ",\"workers\":" + std::to_string(workers) + "}");

  if (workers <= 1) {
    for (int trial = 0; trial < trials; ++trial) fn(trial);
    return;
  }

  // Dynamic scheduling: workers claim the next trial off a shared counter.
  // Which worker runs which trial varies run to run; the caller's
  // trial-indexed slots make that invisible in the output. On failure only
  // the lowest failing index and its exception are kept.
  std::atomic<int> next{0};
  std::atomic<bool> abort{false};
  std::mutex error_mu;
  int error_trial = trials;
  std::exception_ptr error;
  const auto work = [&]() {
    t_pool_worker = true;
    while (!abort.load(std::memory_order_relaxed)) {
      const int trial = next.fetch_add(1, std::memory_order_relaxed);
      if (trial >= trials) return;
      try {
        fn(trial);
      } catch (...) {
        abort.store(true, std::memory_order_relaxed);
        const std::lock_guard<std::mutex> lock(error_mu);
        if (trial < error_trial) {
          error_trial = trial;
          error = std::current_exception();
        }
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) pool.emplace_back(work);
  for (std::thread& t : pool) t.join();

  if (error) std::rethrow_exception(error);
}

}  // namespace rrb
