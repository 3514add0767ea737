// cgc::exec — deterministic data-parallel primitives.
//
// The execution layer every parallel kernel in the repo goes through
// (store row-group decode, stats kernels, per-host analysis scans, the
// cgc_report sweep, the cgcd pipe reader's parse/ingest overlap). Built
// on cgc::util::ThreadPool with three guarantees the raw pool does not
// give:
//
//   1. Determinism. Work is split into chunks whose boundaries depend
//      only on the range size and grain — never on the worker count —
//      and parallel_reduce combines chunk partials strictly in chunk
//      index order. The same input therefore produces bit-identical
//      results at CGC_THREADS=1 and CGC_THREADS=N (floating-point
//      accumulation order is fixed).
//   2. No deadlock under nesting. The calling thread participates in
//      chunk execution instead of blocking on futures, so a parallel
//      region started from inside a pool worker always makes progress
//      even when every worker is busy.
//   3. Ordered exception propagation. If several chunks throw, the
//      exception of the lowest-indexed chunk is rethrown (again
//      independent of scheduling).
//
// Core Guidelines CP.2/CP.3: no shared mutable state inside a parallel
// region — chunk-local accumulators, merged after the join.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace cgc::exec {

/// Number of workers in the shared pool (>= 1). Honors CGC_THREADS.
std::size_t num_workers();

/// Deterministic chunking of [begin, end): fixed boundaries for a given
/// (size, grain) pair, independent of the worker count.
struct ChunkPlan {
  std::size_t begin = 0;       ///< first index of the planned range
  std::size_t end = 0;         ///< one past the last index
  std::size_t chunk_size = 0;  ///< indices per chunk (last may be short)
  std::size_t num_chunks = 0;  ///< total chunks covering [begin, end)

  /// Half-open [lo, hi) index range of `chunk` (< num_chunks).
  std::pair<std::size_t, std::size_t> bounds(std::size_t chunk) const {
    const std::size_t lo = begin + chunk * chunk_size;
    return {lo, std::min(end, lo + chunk_size)};
  }
};

/// Plans chunks for [begin, end). `grain` is the minimum chunk size
/// (0 picks a default sized for cache-friendly scans); the chunk count
/// is additionally capped so tiny ranges stay serial. The plan is a
/// pure function of (begin, end, grain).
ChunkPlan plan_chunks(std::size_t begin, std::size_t end,
                      std::size_t grain = 0);

/// RAII override of the pool used by this layer — lets tests compare a
/// 1-worker run against an N-worker run in-process. Overrides nest.
class ScopedPool {
 public:
  /// Routes subsequent parallel regions to `pool`. nullptr routes them
  /// to the shared pool, as if no override were active.
  explicit ScopedPool(util::ThreadPool* pool);
  /// Restores the override that was active at construction.
  ~ScopedPool();
  ScopedPool(const ScopedPool&) = delete;
  ScopedPool& operator=(const ScopedPool&) = delete;

 private:
  util::ThreadPool* previous_;
};

namespace detail {

/// The pool parallel regions run on: the ScopedPool override if one is
/// active, otherwise util::ThreadPool::shared().
util::ThreadPool& pool();

/// Runs fn(chunk_index) for every index in [0, num_chunks). The calling
/// thread claims chunks alongside up to pool().size() helpers, so this
/// never deadlocks when invoked from inside a pool worker. Rethrows the
/// exception of the lowest-indexed failing chunk.
void run_chunks(std::size_t num_chunks,
                const std::function<void(std::size_t)>& fn);

}  // namespace detail

/// Runs `foreground` and `background` at the same time and returns when
/// both have run, each exactly once:
///   * `foreground` always runs on the calling thread (so, e.g., a
///     blocking read stays on the caller, where SIGTERM/SIGINT land
///     because pool workers block them);
///   * `background` runs on a pool worker if one claims it; if none has
///     by the time `foreground` returns, the caller runs it itself —
///     run_chunks' caller-participation rule, so a saturated pool or a
///     call from inside a pool worker runs the two serially and never
///     deadlocks.
/// Everything either function did happens-before the return. If both
/// throw, `background`'s exception is rethrown (it is the earlier work
/// in program order); otherwise the one exception thrown is.
void overlap(const std::function<void()>& foreground,
             const std::function<void()>& background);

/// Runs fn(chunk_begin, chunk_end) over a deterministic chunking of
/// [begin, end). Blocks until all chunks complete.
template <typename ChunkFn>
void parallel_for_chunked(std::size_t begin, std::size_t end, ChunkFn&& fn,
                          std::size_t grain = 0) {
  const ChunkPlan plan = plan_chunks(begin, end, grain);
  if (plan.num_chunks == 0) {
    return;
  }
  if (plan.num_chunks == 1) {
    fn(plan.begin, plan.end);
    return;
  }
  detail::run_chunks(plan.num_chunks, [&](std::size_t ci) {
    const auto [lo, hi] = plan.bounds(ci);
    fn(lo, hi);
  });
}

/// Runs fn(i) for every i in [begin, end).
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, Fn&& fn,
                  std::size_t grain = 0) {
  parallel_for_chunked(
      begin, end,
      [&fn](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          fn(i);
        }
      },
      grain);
}

/// Deterministic parallel reduction: map_chunk(lo, hi) produces one
/// partial per chunk; combine(&acc, std::move(partial)) folds them into
/// `init` strictly in chunk index order. Equivalent to the serial
///   for each chunk in order: combine(acc, map_chunk(chunk))
/// at every thread count.
template <typename T, typename MapFn, typename CombineFn>
T parallel_reduce(std::size_t begin, std::size_t end, T init, MapFn&& map_chunk,
                  CombineFn&& combine, std::size_t grain = 0) {
  const ChunkPlan plan = plan_chunks(begin, end, grain);
  if (plan.num_chunks == 0) {
    return init;
  }
  if (plan.num_chunks == 1) {
    combine(init, map_chunk(plan.begin, plan.end));
    return init;
  }
  std::vector<std::optional<T>> partials(plan.num_chunks);
  detail::run_chunks(plan.num_chunks, [&](std::size_t ci) {
    const auto [lo, hi] = plan.bounds(ci);
    partials[ci].emplace(map_chunk(lo, hi));
  });
  for (std::optional<T>& partial : partials) {
    combine(init, std::move(*partial));
  }
  return init;
}

/// Applies fn(i) to every index and returns the results in index order.
/// T must be default-constructible; slots are written without locks
/// (disjoint indices).
template <typename T, typename Fn>
std::vector<T> parallel_map(std::size_t n, Fn&& fn, std::size_t grain = 0) {
  std::vector<T> out(n);
  parallel_for(
      0, n, [&](std::size_t i) { out[i] = fn(i); }, grain);
  return out;
}

namespace detail {

/// Serial threshold below which parallel_sort falls back to std::sort.
/// Part of the determinism contract: the cutoff depends only on n.
inline constexpr std::size_t kSortSerialCutoff = 1 << 15;

/// Number of initially sorted runs (power of two so the merge tree is
/// balanced); fixed, so run boundaries never depend on the pool size.
inline constexpr std::size_t kSortRuns = 32;

}  // namespace detail

/// Sorts `v` with a deterministic parallel merge sort: a fixed number
/// of runs are sorted concurrently, then pairwise-merged (ties take the
/// lower-run element, i.e. the merge is stable across runs). The result
/// is identical at every thread count, and matches std::stable_sort's
/// ordering of equivalent elements across run boundaries.
template <typename T, typename Compare = std::less<T>>
void parallel_sort(std::vector<T>* v, Compare comp = Compare()) {
  CGC_CHECK(v != nullptr);
  if (v->size() < detail::kSortSerialCutoff) {
    std::sort(v->begin(), v->end(), comp);
    return;
  }
  const std::size_t n = v->size();
  const std::size_t num_runs = detail::kSortRuns;
  const std::size_t run = (n + num_runs - 1) / num_runs;
  // Run boundaries [i*run, min(n, (i+1)*run)).
  detail::run_chunks(num_runs, [&](std::size_t ri) {
    const std::size_t lo = std::min(n, ri * run);
    const std::size_t hi = std::min(n, lo + run);
    std::sort(v->begin() + static_cast<std::ptrdiff_t>(lo),
              v->begin() + static_cast<std::ptrdiff_t>(hi), comp);
  });
  // log2(num_runs) pairwise merge rounds, ping-ponging with a scratch
  // buffer. std::merge is stable (left run wins ties), so the final
  // order is fixed regardless of scheduling.
  std::vector<T> scratch(n);
  std::vector<T>* src = v;
  std::vector<T>* dst = &scratch;
  for (std::size_t width = run; width < n; width *= 2) {
    const std::size_t num_pairs = (n + 2 * width - 1) / (2 * width);
    detail::run_chunks(num_pairs, [&](std::size_t pi) {
      const std::size_t lo = std::min(n, pi * 2 * width);
      const std::size_t mid = std::min(n, lo + width);
      const std::size_t hi = std::min(n, lo + 2 * width);
      std::merge(src->begin() + static_cast<std::ptrdiff_t>(lo),
                 src->begin() + static_cast<std::ptrdiff_t>(mid),
                 src->begin() + static_cast<std::ptrdiff_t>(mid),
                 src->begin() + static_cast<std::ptrdiff_t>(hi),
                 dst->begin() + static_cast<std::ptrdiff_t>(lo), comp);
    });
    std::swap(src, dst);
  }
  if (src != v) {
    v->swap(scratch);
  }
}

}  // namespace cgc::exec
