#include "src/common/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace fpgadp {
namespace {

/// Squares its input and counts its runs.
class SquareTask final : public Task {
 public:
  explicit SquareTask(uint64_t input) : input_(input) {}

  uint64_t result = 0;
  std::atomic<int> runs{0};

 private:
  void Run() override {
    runs.fetch_add(1);
    result = input_ * input_;
  }

  uint64_t input_;
};

/// Blocks its worker until `release` is ready.
class BlockTask final : public Task {
 public:
  explicit BlockTask(std::shared_future<void> release) : release_(std::move(release)) {}

 private:
  void Run() override { release_.wait(); }

  std::shared_future<void> release_;
};

/// As many blocking tasks as there are cores, one more than the pool's
/// workers: every worker is stuck in one and the last stays queued, so
/// nothing queued after them starts on a worker until Release().
class BusyPool {
 public:
  BusyPool() : release_(promise_.get_future().share()) {
    for (size_t i = 0; i < std::max(1u, std::thread::hardware_concurrency()); ++i) {
      blockers_.push_back(std::make_shared<BlockTask>(release_));
      Submit(blockers_.back());
    }
  }
  ~BusyPool() { Release(); }

  void Release() {
    if (released_) return;
    released_ = true;
    promise_.set_value();
    for (const auto& blocker : blockers_) blocker->Wait();
  }

 private:
  std::promise<void> promise_;
  std::shared_future<void> release_;
  std::vector<std::shared_ptr<BlockTask>> blockers_;
  bool released_ = false;
};

TEST(WorkerPoolTest, RunsEveryTaskOnceAndHandsBackItsResult) {
  std::vector<std::shared_ptr<SquareTask>> tasks;
  for (uint64_t i = 0; i < 2000; ++i) {
    tasks.push_back(std::make_shared<SquareTask>(i));
    Submit(tasks.back());
  }
  // Newest first: the caller runs the ones no worker has reached yet.
  for (auto it = tasks.rbegin(); it != tasks.rend(); ++it) (*it)->Wait();
  for (uint64_t i = 0; i < tasks.size(); ++i) {
    EXPECT_TRUE(tasks[i]->done());
    EXPECT_EQ(tasks[i]->runs.load(), 1) << "task " << i;
    EXPECT_EQ(tasks[i]->result, i * i) << "task " << i;
    tasks[i]->Wait();  // a second wait returns at once and runs nothing
    EXPECT_EQ(tasks[i]->runs.load(), 1) << "task " << i;
  }
}

TEST(WorkerPoolTest, WaitRunsATaskNoWorkerHasStarted) {
  BusyPool busy;
  auto task = std::make_shared<SquareTask>(7);
  Submit(task);
  EXPECT_FALSE(task->done());
  task->Wait();
  EXPECT_EQ(task->result, 49u);
  busy.Release();
  EXPECT_EQ(task->runs.load(), 1);  // the worker that pops it runs nothing
}

TEST(ParallelForTest, FinishesOnTheCallerWhileEveryWorkerIsBusy) {
  BusyPool busy;
  const size_t n = 5 * kParallelForChunk + 3;
  std::vector<int> visits(n, 0);
  std::mutex mu;
  std::vector<std::thread::id> runners;
  ParallelFor(n, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++visits[i];
    const std::lock_guard<std::mutex> lock(mu);
    runners.push_back(std::this_thread::get_id());
  });
  busy.Release();
  EXPECT_EQ(std::count(visits.begin(), visits.end(), 1), static_cast<ptrdiff_t>(n));
  EXPECT_EQ(runners.size(),
            std::min<size_t>(std::max(1u, std::thread::hardware_concurrency()), 5));
  for (const std::thread::id& id : runners) EXPECT_EQ(id, std::this_thread::get_id());
}

}  // namespace
}  // namespace fpgadp
