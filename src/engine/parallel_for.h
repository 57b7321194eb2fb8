// Deterministic parallel-for, shared by BatchRunner (jobs across a
// batch) and the per-application analysis stage (apps inside one
// solve). Since the executor rewrite this is a thin façade over the
// process-wide work-stealing Executor pool (engine/executor.h): every
// index runs exactly once and writes only state it owns, so results are
// independent of the thread count — and nested parallel_for calls share
// one bounded worker pool instead of multiplying threads.
#pragma once

#include <functional>

namespace ttdim::engine {

/// Resolve a thread-count request: 0 picks hardware_concurrency (at least
/// 1); positive values pass through. Negative counts are a logic error.
[[nodiscard]] int resolve_threads(int threads);

/// fn(i) for i in [0, n), each index claimed exactly once. fn runs
/// concurrently on up to `threads` threads of the shared Executor pool
/// (the calling thread is always worker 0) and must only write state
/// owned by index i. threads <= 1 runs the plain serial loop on the
/// calling thread (fail-fast: the first exception propagates immediately).
/// In the concurrent case exceptions are collected per index and the
/// lowest-index one is rethrown on the calling thread after all indices
/// ran — deterministic, unlike the first-to-fail rethrow this replaces.
void parallel_for_index(int threads, int n,
                        const std::function<void(int)>& fn);

}  // namespace ttdim::engine
