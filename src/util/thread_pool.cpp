#include "util/thread_pool.hpp"

#include <new>
#include <string>
#include <utility>

#include "util/fault_injection.hpp"

namespace sdf {

Status task_error(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::bad_alloc&) {
    return Error{"worker task failed: allocation failure (bad_alloc)"};
  } catch (const std::exception& e) {
    return Error{std::string("worker task failed: ") + e.what()};
  } catch (...) {
    return Error{"worker task failed with a non-standard exception"};
  }
}

ThreadPool::ThreadPool(std::size_t workers) {
  try {
    for (std::size_t i = 0; i < workers; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  } catch (...) {  // a thread failed to start: join those that did
    stop_workers();
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_workers(); }

void ThreadPool::stop_workers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::run_job() {
  for (std::size_t i = next_++; i < n_; i = next_++) {
    try {
      SDF_FAULT_POINT("thread_pool.task");
      (*fn_)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
  }
}

void ThreadPool::worker_loop() {
  std::size_t joined = 0;  // the last generation this worker joined
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Joining each job once keeps a worker that finished early from
    // spinning on it; one that wakes after the job closed skips it.
    start_cv_.wait(lock,
                   [&] { return stop_ || (open_ && generation_ != joined); });
    if (stop_) return;
    joined = generation_;
    ++active_;
    lock.unlock();
    run_job();
    lock.lock();
    if (--active_ == 0 && !open_) done_cv_.notify_one();
  }
}

Status ThreadPool::parallel_for(std::size_t n,
                                const std::function<void(std::size_t)>& fn) {
  const bool fan_out = n > 1 && !workers_.empty();  // else wake nobody
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    n_ = n;
    next_ = 0;
    open_ = fan_out;
    if (fan_out) ++generation_;
  }
  if (fan_out) start_cv_.notify_all();
  run_job();
  std::unique_lock<std::mutex> lock(mu_);
  open_ = false;
  done_cv_.wait(lock, [this] { return active_ == 0; });
  const std::exception_ptr error = std::exchange(first_error_, nullptr);
  lock.unlock();
  return error ? task_error(error) : Status::Ok();
}

}  // namespace sdf
