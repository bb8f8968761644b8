//===- ThreadPool.h - Minimal fixed-size worker pool ------------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size thread pool: the CompileService's request workers.
/// Tasks are plain std::function<void()> and run in no particular order;
/// wait() blocks until every submitted task has finished and rethrows the
/// first task exception.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_SUPPORT_THREADPOOL_H
#define EARTHCC_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace earthcc {

class ThreadPool {
public:
  /// Spawns \p Threads workers (0 means hardwareThreads()).
  explicit ThreadPool(unsigned Threads) {
    if (Threads == 0)
      Threads = hardwareThreads();
    Workers.reserve(Threads);
    for (unsigned I = 0; I != Threads; ++I)
      Workers.emplace_back([this] { workerLoop(); });
  }

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Stopping = true;
    }
    WorkAvailable.notify_all();
    for (std::thread &W : Workers)
      W.join();
  }

  unsigned numThreads() const { return static_cast<unsigned>(Workers.size()); }

  /// The host's concurrency (never 0).
  static unsigned hardwareThreads() {
    unsigned N = std::thread::hardware_concurrency();
    return N ? N : 1;
  }

  /// Enqueues \p Task. May be called while tasks run (tasks may not submit).
  void run(std::function<void()> Task) {
    {
      std::lock_guard<std::mutex> Lock(M);
      Queue.push_back(std::move(Task));
      ++Outstanding;
    }
    WorkAvailable.notify_one();
  }

  /// Blocks until every task submitted so far has completed, then rethrows
  /// the first exception a task raised (if any).
  void wait() {
    std::unique_lock<std::mutex> Lock(M);
    AllDone.wait(Lock, [this] { return Outstanding == 0; });
    if (FirstError) {
      std::exception_ptr E = FirstError;
      FirstError = nullptr;
      std::rethrow_exception(E);
    }
  }

private:
  void workerLoop() {
    for (;;) {
      std::function<void()> Task;
      {
        std::unique_lock<std::mutex> Lock(M);
        WorkAvailable.wait(Lock, [this] { return Stopping || !Queue.empty(); });
        if (Queue.empty())
          return; // Stopping and drained.
        Task = std::move(Queue.front());
        Queue.pop_front();
      }
      std::exception_ptr Err;
      try {
        Task();
      } catch (...) {
        Err = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> Lock(M);
        if (Err && !FirstError)
          FirstError = Err;
        if (--Outstanding == 0)
          AllDone.notify_all();
      }
    }
  }

  std::mutex M;
  std::condition_variable WorkAvailable;
  std::condition_variable AllDone;
  std::deque<std::function<void()>> Queue;
  std::vector<std::thread> Workers;
  size_t Outstanding = 0;
  bool Stopping = false;
  std::exception_ptr FirstError;
};

} // namespace earthcc

#endif // EARTHCC_SUPPORT_THREADPOOL_H
