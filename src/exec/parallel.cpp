#include "exec/parallel.hpp"

#include <atomic>
#include <exception>
#include <memory>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/mutex.hpp"

namespace cgc::exec {

namespace {

/// Pool queue depth, maintained here rather than in util::ThreadPool so
/// cgc_util stays below cgc_obs in the link graph.
obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& g = obs::gauge("exec.queue_depth");
  return g;
}

/// Default minimum chunk size: small enough to balance per-host scans,
/// large enough that chunk bookkeeping is noise for element-wise loops.
constexpr std::size_t kDefaultGrain = 1024;

/// Cap on the chunk count. Fixed (not pool-size-derived) so the chunk
/// plan — and with it every reduction order — is identical at any
/// CGC_THREADS. 256 chunks keep 8-32 workers load-balanced without
/// flooding the queue.
constexpr std::size_t kMaxChunks = 256;

/// The ScopedPool override slot and the mutex guarding it, together so
/// the guarded_by relation is expressible.
struct PoolOverride {
  util::Mutex mutex;
  util::ThreadPool* pool CGC_GUARDED_BY(mutex) = nullptr;
};

PoolOverride& pool_override() {
  static PoolOverride slot;
  return slot;
}

}  // namespace

std::size_t num_workers() { return detail::pool().size(); }

ChunkPlan plan_chunks(std::size_t begin, std::size_t end, std::size_t grain) {
  ChunkPlan plan;
  if (begin >= end) {
    return plan;
  }
  plan.begin = begin;
  plan.end = end;
  const std::size_t n = end - begin;
  if (grain == 0) {
    grain = kDefaultGrain;
  }
  std::size_t num_chunks = std::max<std::size_t>(1, n / grain);
  num_chunks = std::min(num_chunks, kMaxChunks);
  plan.chunk_size = (n + num_chunks - 1) / num_chunks;
  plan.num_chunks = (n + plan.chunk_size - 1) / plan.chunk_size;
  return plan;
}

ScopedPool::ScopedPool(util::ThreadPool* pool) {
  PoolOverride& slot = pool_override();
  util::MutexLock lock(slot.mutex);
  previous_ = slot.pool;
  slot.pool = pool;
}

ScopedPool::~ScopedPool() {
  PoolOverride& slot = pool_override();
  util::MutexLock lock(slot.mutex);
  slot.pool = previous_;
}

namespace detail {

util::ThreadPool& pool() {
  {
    PoolOverride& slot = pool_override();
    util::MutexLock lock(slot.mutex);
    if (slot.pool != nullptr) {
      return *slot.pool;
    }
  }
  return util::ThreadPool::shared();
}

void run_chunks(std::size_t num_chunks,
                const std::function<void(std::size_t)>& fn) {
  if (num_chunks == 0) {
    return;
  }
  // exec.regions / exec.chunks count logical work items; the chunk plan
  // depends only on (size, grain), so these are deterministic across
  // CGC_THREADS.
  if (obs::metrics_enabled()) {
    static obs::Counter& regions = obs::counter("exec.regions");
    static obs::Counter& chunks = obs::counter("exec.chunks");
    regions.add(1);
    chunks.add(num_chunks);
  }
  if (num_chunks == 1) {
    if (obs::metrics_enabled()) {
      static obs::Histogram& chunk_ns = obs::histogram("exec.chunk_ns");
      const std::uint64_t start = obs::now_ns();
      fn(0);
      chunk_ns.observe(obs::now_ns() - start);
      return;
    }
    fn(0);
    return;
  }

  // Shared claim state. Helpers hold it by shared_ptr, so a helper that
  // only gets scheduled after this call returned (all chunks were
  // claimed by faster threads) still finds valid memory and exits.
  struct State {
    std::function<void(std::size_t)> fn;
    std::size_t num_chunks = 0;
    std::atomic<std::size_t> next{0};
    util::Mutex mutex;
    util::CondVar done_cv;
    std::size_t completed CGC_GUARDED_BY(mutex) = 0;
    std::vector<std::pair<std::size_t, std::exception_ptr>> errors
        CGC_GUARDED_BY(mutex);
  };
  auto state = std::make_shared<State>();
  state->fn = fn;
  state->num_chunks = num_chunks;

  const auto work = [](const std::shared_ptr<State>& s) {
    for (;;) {
      const std::size_t ci = s->next.fetch_add(1, std::memory_order_relaxed);
      if (ci >= s->num_chunks) {
        return;
      }
      std::exception_ptr error;
      try {
        if (obs::enabled()) {
          // Per-chunk spans are what Perfetto renders as per-worker
          // utilization: each chunk is attributed to the thread that
          // claimed it.
          obs::Span span("exec.chunk");
          if (obs::metrics_enabled()) {
            static obs::Histogram& chunk_ns = obs::histogram("exec.chunk_ns");
            const std::uint64_t start = obs::now_ns();
            s->fn(ci);
            chunk_ns.observe(obs::now_ns() - start);
          } else {
            s->fn(ci);
          }
        } else {
          s->fn(ci);
        }
      } catch (...) {
        error = std::current_exception();
      }
      util::MutexLock lock(s->mutex);
      if (error) {
        s->errors.emplace_back(ci, std::move(error));
      }
      if (++s->completed == s->num_chunks) {
        s->done_cv.notify_all();
      }
    }
  };

  // Helpers never block, so claimed chunks always finish; the caller
  // claims chunks too, so progress is guaranteed even when every pool
  // worker is parked inside an enclosing parallel region.
  util::ThreadPool& p = pool();
  const std::size_t num_helpers = std::min(p.size(), num_chunks - 1);
  const bool track_queue = obs::metrics_enabled();
  if (track_queue) {
    queue_depth_gauge().add(static_cast<std::int64_t>(num_helpers));
  }
  for (std::size_t i = 0; i < num_helpers; ++i) {
    p.submit([state, work, track_queue] {
      if (track_queue) {
        queue_depth_gauge().add(-1);
      }
      work(state);
    });
  }
  work(state);

  util::MutexLock lock(state->mutex);
  while (state->completed != state->num_chunks) {
    state->done_cv.wait(state->mutex);
  }
  if (!state->errors.empty()) {
    // Deterministic choice: lowest chunk index wins. Workers move their
    // errors in under the lock and they leave the shared state here, so
    // every exception dies on this thread, not on a helper thread.
    const auto errors = std::exchange(state->errors, {});
    auto first = errors.front();
    for (const auto& e : errors) {
      if (e.first < first.first) {
        first = e;
      }
    }
    std::rethrow_exception(first.second);
  }
}

}  // namespace detail

void overlap(const std::function<void()>& foreground,
             const std::function<void()>& background) {
  // Claim state shared with the helper task, which holds it by
  // shared_ptr: a helper scheduled after the caller claimed `background`
  // itself finds valid memory, loses the claim and returns without
  // touching `background` (which may be gone by then).
  struct State {
    const std::function<void()>* background = nullptr;
    std::atomic<bool> claimed{false};
    util::Mutex mutex;
    util::CondVar done_cv;
    bool done CGC_GUARDED_BY(mutex) = false;
    std::exception_ptr error CGC_GUARDED_BY(mutex);
  };
  auto state = std::make_shared<State>();
  state->background = &background;

  const bool track_queue = obs::metrics_enabled();
  if (track_queue) {
    queue_depth_gauge().add(1);
  }
  detail::pool().submit([state, track_queue] {
    if (track_queue) {
      queue_depth_gauge().add(-1);
    }
    if (state->claimed.exchange(true)) {
      return;  // the caller ran it
    }
    std::exception_ptr error;
    try {
      (*state->background)();
    } catch (...) {
      error = std::current_exception();
    }
    util::MutexLock lock(state->mutex);
    state->error = std::move(error);
    state->done = true;
    state->done_cv.notify_all();
  });

  std::exception_ptr foreground_error;
  try {
    foreground();
  } catch (...) {
    foreground_error = std::current_exception();
  }
  std::exception_ptr background_error;
  if (!state->claimed.exchange(true)) {
    try {
      background();
    } catch (...) {
      background_error = std::current_exception();
    }
  } else {
    util::MutexLock lock(state->mutex);
    while (!state->done) {
      state->done_cv.wait(state->mutex);
    }
    // Moved out, so the exception dies on this thread, not on the
    // helper thread.
    background_error = std::exchange(state->error, nullptr);
  }
  if (background_error) {
    std::rethrow_exception(background_error);
  }
  if (foreground_error) {
    std::rethrow_exception(foreground_error);
  }
}

}  // namespace cgc::exec
