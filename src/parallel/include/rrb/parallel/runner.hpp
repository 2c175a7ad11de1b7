#pragma once

#include <functional>

#include "rrb/common/runner_config.hpp"

/// \file runner.hpp
/// Deterministic parallel runner: the one worker pool of the library.
///
/// Executes indexed bodies (trials of a sweep, fixed blocks of a topology
/// generator) across a worker pool with dynamic (shared-counter)
/// scheduling: each worker claims the next index until none are left. The
/// module sits below sim and bigtopo and depends on common and telemetry
/// only. The runner guarantees nothing about *execution* order; callers
/// obtain thread-count-independent results by following the seeding
/// contract:
///
///   1. all randomness of trial i is drawn from Rng(seed).fork(i), so no
///      trial observes any other trial's draws;
///   2. each trial writes only into its own slot, and the slots are
///      reduced sequentially in trial order after the pool has drained.
///
/// Under those two rules the output is bit-identical for every thread
/// count, which is what the determinism regression suite
/// (tests/test_runner.cpp) pins down.

namespace rrb {

class ParallelRunner {
 public:
  /// Throws std::logic_error on negative threads/batch.
  explicit ParallelRunner(RunnerConfig config = {});

  /// Worker threads a pool built from `config` would use, before capping
  /// by the number of trials: config.threads when positive, else
  /// $RRB_THREADS when set to a positive integer, else one per hardware
  /// core (minimum 1).
  [[nodiscard]] static int resolve_threads(const RunnerConfig& config);

  /// Workers a for_each_trial over `trials` indices would start from this
  /// thread: min(trials, resolve_threads()), or 1 inside a pool worker.
  [[nodiscard]] int workers_for(int trials) const;

  /// Invoke fn(trial) once per trial in [0, trials), concurrently on up to
  /// resolve_threads() workers (inline on the calling thread when one
  /// worker suffices). A call made from inside a pool worker also runs
  /// inline on that worker, so nested pools (a chunked topology generated
  /// inside a parallel trial) never multiply the thread count. fn runs on
  /// multiple threads at once and must only touch trial-local state. If
  /// trials throw, the remaining trials are abandoned, the pool drains,
  /// and the exception of the lowest-indexed trial that ran and threw is
  /// rethrown. *Which* trials run before the abort flag is observed is
  /// schedule-dependent, so with several concurrent failures the rethrown
  /// exception can differ between runs; with threads = 1 it is always the
  /// first failing trial.
  void for_each_trial(int trials, const std::function<void(int)>& fn) const;

 private:
  RunnerConfig config_;
};

}  // namespace rrb
