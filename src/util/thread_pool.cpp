#include "util/thread_pool.hpp"

#include <pthread.h>

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <string>

#include "util/check.hpp"

namespace cgc::util {

namespace {

/// Blocks SIGTERM and SIGINT on the calling thread for its lifetime, then
/// restores the previous mask. A thread started meanwhile inherits the
/// blocked mask.
class StopSignalsBlocked {
 public:
  StopSignalsBlocked() {
    sigset_t stop_signals;
    sigemptyset(&stop_signals);
    sigaddset(&stop_signals, SIGTERM);
    sigaddset(&stop_signals, SIGINT);
    pthread_sigmask(SIG_BLOCK, &stop_signals, &previous_);
  }
  ~StopSignalsBlocked() { pthread_sigmask(SIG_SETMASK, &previous_, nullptr); }
  StopSignalsBlocked(const StopSignalsBlocked&) = delete;
  StopSignalsBlocked& operator=(const StopSignalsBlocked&) = delete;

 private:
  sigset_t previous_;
};

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // Workers never take a process-directed SIGTERM/SIGINT: it goes to a
  // thread outside the pool, such as a main thread blocked in read(2),
  // whose read then fails with EINTR (stream/shutdown.hpp).
  const StopSignalsBlocked blocked;
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  {
    MutexLock lock(mutex_);
    CGC_CHECK_MSG(!stopping_, "submit() on a stopping ThreadPool");
    queue_.push(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool([] {
    // CGC_THREADS pins the shared pool size (the cgc::exec determinism
    // contract makes results identical at any value; the knob exists
    // for benchmarking and for pinning CI smoke runs).
    if (const char* env = std::getenv("CGC_THREADS")) {
      const long parsed = std::strtol(env, nullptr, 10);
      if (parsed > 0) {
        return static_cast<std::size_t>(parsed);
      }
    }
    return std::size_t{0};  // hardware_concurrency()
  }());
  return pool;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      MutexLock lock(mutex_);
      // Explicit predicate loop (not the lambda-predicate overload) so
      // the thread-safety analysis sees the guarded reads under the
      // held capability.
      while (!stopping_ && queue_.empty()) {
        cv_.wait(mutex_);
      }
      if (queue_.empty()) {
        return;  // stopping_ and drained
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();  // exceptions are captured in the packaged_task's future
  }
}

}  // namespace cgc::util
