// A fork-join thread pool for EXPLORE's cost bands.
//
// `parallel_for` is the only entry point: the workers and the calling
// thread each take the next index from one shared atomic cursor until the
// band is done, so a long iteration (a deep binding solve among candidates
// the filters reject in microseconds) strands nothing behind it.  A
// throwing iteration is recorded, every other one still runs, and the first
// error comes back as a `Status`: an exception here is exceptional (an
// injected fault, bad_alloc), expected failures use Result<T>.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/status.hpp"

namespace sdf {

/// Renders the exception of a failed iteration as the Status it is
/// reported by, whether or not a pool ran it.
[[nodiscard]] Status task_error(const std::exception_ptr& error);

class ThreadPool {
 public:
  /// Spawns `workers` threads; with none, `parallel_for` runs on the caller.
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

  /// Runs `fn(0) .. fn(n-1)` on the workers and the calling thread, and
  /// returns once every iteration has finished and every worker has left
  /// the job, so `fn` never outlives the call.  No ordering is guaranteed.
  /// A throwing iteration does not stop the others; the first error is
  /// returned.  One job at a time: call it from one thread, never from `fn`.
  [[nodiscard]] Status parallel_for(std::size_t n,
                                    const std::function<void(std::size_t)>& fn);

  /// `std::thread::hardware_concurrency()` with a sane floor of 1.
  [[nodiscard]] static std::size_t hardware_threads() {
    return std::max(1u, std::thread::hardware_concurrency());
  }

 private:
  void worker_loop();
  /// Runs iterations of the current job until the cursor passes its end.
  void run_job();
  void stop_workers();

  std::mutex mu_;  ///< guards the job and its state below, not the cursor
  std::condition_variable start_cv_;  ///< wakes workers: a new job or stop
  std::condition_variable done_cv_;   ///< wakes the caller: workers left
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t n_ = 0;
  std::size_t generation_ = 0;      ///< bumped per job workers may join
  bool open_ = false;               ///< the caller still runs the job
  std::size_t active_ = 0;          ///< workers inside the job
  bool stop_ = false;
  std::exception_ptr first_error_;  ///< the job's first exception
  std::atomic<std::size_t> next_{0};  ///< the cursor: next unclaimed index
  std::vector<std::thread> workers_;  // last: the threads use all the above
};

}  // namespace sdf
