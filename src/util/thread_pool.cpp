#include "util/thread_pool.hpp"

namespace fta::util {

thread_local const ThreadPool* ThreadPool::current_pool_ = nullptr;
thread_local std::size_t ThreadPool::current_index_ = 0;

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  queues_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stopping_ = true;
  }
  wake_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::post(std::function<void()> fn) {
  // `pending_` is raised *before* the task becomes visible, so it always
  // over-approximates the number of queued tasks: workers only shut down
  // at pending_ == 0, which therefore never strands a task. The worker
  // that wins the race before the push lands just spins once (see
  // worker_loop).
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    ++pending_;
  }
  // A worker submitting from inside a task pushes to its own deque (LIFO
  // end); external callers distribute round-robin.
  std::size_t target;
  if (current_pool_ == this) {
    target = current_index_;
  } else {
    target = static_cast<std::size_t>(
                 next_queue_.fetch_add(1, std::memory_order_relaxed)) %
             queues_.size();
  }
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mutex);
    queues_[target]->tasks.push_back(std::move(fn));
  }
  wake_cv_.notify_one();
}

bool ThreadPool::try_pop_own(std::size_t index, std::function<void()>& out) {
  Queue& q = *queues_[index];
  std::lock_guard<std::mutex> lock(q.mutex);
  if (q.tasks.empty()) return false;
  out = std::move(q.tasks.back());  // LIFO from the owned end
  q.tasks.pop_back();
  return true;
}

bool ThreadPool::try_steal(std::size_t thief, std::function<void()>& out) {
  const std::size_t n = queues_.size();
  for (std::size_t k = 1; k < n; ++k) {
    Queue& q = *queues_[(thief + k) % n];
    std::lock_guard<std::mutex> lock(q.mutex);
    if (q.tasks.empty()) continue;
    out = std::move(q.tasks.front());  // FIFO from the victim's cold end
    q.tasks.pop_front();
    steals_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t index) {
  current_pool_ = this;
  current_index_ = index;
  for (;;) {
    std::function<void()> task;
    if (try_pop_own(index, task) || try_steal(index, task)) {
      {
        std::lock_guard<std::mutex> lock(wake_mutex_);
        if (pending_ > 0) --pending_;
      }
      // Counted before the task runs, so a submitter whose future the
      // task fulfils already sees it counted.
      executed_.fetch_add(1, std::memory_order_relaxed);
      task();
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mutex_);
    if (stopping_ && pending_ == 0) return;
    if (pending_ > 0) {
      // A post() has raised pending_ but not yet published its task (or
      // another worker is about to run it): retry rather than sleep.
      lock.unlock();
      std::this_thread::yield();
      continue;
    }
    wake_cv_.wait(lock, [this] { return pending_ > 0 || stopping_; });
  }
}

}  // namespace fta::util
