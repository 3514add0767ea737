// Fixed-size thread pool.
//
// The raw execution substrate: FIFO task queue, RAII joins (Core
// Guidelines CP.2/CP.3/CP.20). Data-parallel loops should not use this
// directly — cgc::exec (src/exec/parallel.hpp) layers deterministic
// chunking, nesting-safe waits, and ordered reductions on top of it.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.h"

namespace cgc::util {

/// A fixed pool of worker threads executing enqueued tasks FIFO.
/// Destruction joins all workers after draining the queue (RAII).
/// Workers block SIGTERM and SIGINT, so those signals, when sent to the
/// process, are delivered to a thread outside the pool.
class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means hardware_concurrency().
  explicit ThreadPool(std::size_t num_threads = 0);
  /// Drains the queue, then stops and joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; returns a future for its completion.
  std::future<void> submit(std::function<void()> task);

  /// Process-wide shared pool (lazily constructed, never destroyed before
  /// exit). Sized by the CGC_THREADS environment variable when set to a
  /// positive integer, else hardware_concurrency(). Use for transient
  /// data-parallel regions (via cgc::exec).
  static ThreadPool& shared();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  Mutex mutex_;
  std::queue<std::packaged_task<void()>> queue_ CGC_GUARDED_BY(mutex_);
  CondVar cv_;
  bool stopping_ CGC_GUARDED_BY(mutex_) = false;
};

}  // namespace cgc::util
