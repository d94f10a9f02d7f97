#include "src/common/parallel.h"

#include <condition_variable>
#include <deque>
#include <mutex>
#include <utility>

namespace fpgadp {

/// The one set of worker threads in the process: a FIFO of tasks under one
/// mutex. A task is claimed by an atomic exchange, by a worker or by a
/// waiter, so it runs once; a worker that pops a task a waiter already ran
/// just drops it.
class WorkerPool {
 public:
  static WorkerPool& Get() {
    static WorkerPool pool(std::max(1u, std::thread::hardware_concurrency()) - 1);
    return pool;
  }

  explicit WorkerPool(size_t workers) {
    threads_.reserve(workers);
    for (size_t i = 0; i < workers; ++i) threads_.emplace_back([this] { Work(); });
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    queued_.notify_all();
    // threads_ joins first, as the last member declared.
  }

  void Push(std::shared_ptr<Task> task) {
    // Without workers nothing would pop the queue; the waiter runs the task.
    if (threads_.empty()) return;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(task));
    }
    queued_.notify_one();
  }

  /// Runs `task` unless another thread has claimed it. An exception out of
  /// Run() ends the program here rather than leave the task never done.
  void RunUnlessClaimed(Task& task) noexcept {
    if (task.claimed_.exchange(true, std::memory_order_acq_rel)) return;
    task.Run();
    {
      // Under the lock, so a waiter cannot test done() and then miss this.
      const std::lock_guard<std::mutex> lock(mu_);
      task.done_.store(true, std::memory_order_release);
    }
    finished_.notify_all();
  }

  void WaitFor(const Task& task) {
    std::unique_lock<std::mutex> lock(mu_);
    finished_.wait(lock, [&task] { return task.done(); });
  }

 private:
  void Work() {
    for (;;) {
      std::shared_ptr<Task> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        queued_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (stopping_) return;
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      RunUnlessClaimed(*task);
    }
  }

  std::mutex mu_;
  std::condition_variable queued_;    ///< A task was queued, or stopping_.
  std::condition_variable finished_;  ///< A task finished.
  std::deque<std::shared_ptr<Task>> queue_;
  bool stopping_ = false;
  std::vector<std::jthread> threads_;
};

void Task::Wait() {
  WorkerPool& pool = WorkerPool::Get();
  pool.RunUnlessClaimed(*this);
  if (!done()) pool.WaitFor(*this);
}

void Submit(std::shared_ptr<Task> task) { WorkerPool::Get().Push(std::move(task)); }

}  // namespace fpgadp
