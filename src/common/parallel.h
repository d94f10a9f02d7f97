#ifndef FPGADP_COMMON_PARALLEL_H_
#define FPGADP_COMMON_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

namespace fpgadp {

/// One unit of work for the process-wide worker pool (see Submit). It runs
/// exactly once: on a pool worker, or on the first thread that waits for it
/// before any worker has started it.
class Task {
 public:
  Task() = default;
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  virtual ~Task() = default;

  /// Returns once Run() has returned, with everything it wrote visible to
  /// the caller. A task no worker has started yet runs here, on the caller,
  /// so a wait never needs a free worker.
  void Wait();

  /// True once Run() has returned; what it wrote is then visible.
  bool done() const { return done_.load(std::memory_order_acquire); }

 protected:
  /// The work. Library code throws no exceptions; one escaping Run() ends
  /// the program, as it would on any thread.
  virtual void Run() = 0;

 private:
  friend class WorkerPool;

  std::atomic<bool> claimed_{false};
  std::atomic<bool> done_{false};
};

/// Queues `task` on the process-wide pool of hardware_concurrency() - 1
/// worker threads. The pool starts on the first call, so a process that
/// never submits a task never starts a thread. On a single core there are
/// no workers, and the task runs in its first Wait().
void Submit(std::shared_ptr<Task> task);

/// No range ParallelFor hands out is shorter than this many indices, so an
/// input below twice this size runs inline on the caller.
inline constexpr size_t kParallelForChunk = 4096;

namespace internal {

/// fn(begin, end) as a pool task. It holds `fn` by reference: ParallelFor
/// waits for it before `fn` goes out of scope.
template <typename Fn>
class RangeTask final : public Task {
 public:
  RangeTask(const Fn& fn, size_t begin, size_t end)
      : fn_(fn), begin_(begin), end_(end) {}

 private:
  void Run() override { fn_(begin_, end_); }

  const Fn& fn_;
  size_t begin_;
  size_t end_;
};

}  // namespace internal

/// Calls fn(begin, end) on contiguous ranges that together cover [0, n) once:
/// min(hardware_concurrency, n / kParallelForChunk) ranges (at least one) of
/// near-equal length. The caller runs the first range, queues the others on
/// the worker pool and then waits for them in order, running itself any that
/// no worker has started, so the call finishes even while every worker is
/// busy. One range is the plain serial loop and touches no pool. `fn` must
/// write only what the indices of its own range own, and must not throw:
/// the queued ranges hold it by reference.
template <typename Fn>
void ParallelFor(size_t n, const Fn& fn) noexcept {
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  const size_t ranges = std::max<size_t>(1, std::min(cores, n / kParallelForChunk));
  std::vector<std::shared_ptr<Task>> tasks;
  tasks.reserve(ranges - 1);
  for (size_t r = 1; r < ranges; ++r) {
    tasks.push_back(std::make_shared<internal::RangeTask<Fn>>(
        fn, n * r / ranges, n * (r + 1) / ranges));
    Submit(tasks.back());
  }
  fn(size_t{0}, n / ranges);
  for (const std::shared_ptr<Task>& task : tasks) task->Wait();
}

}  // namespace fpgadp

#endif  // FPGADP_COMMON_PARALLEL_H_
