// Minimal persistent thread pool and the dependency-counter task DAG the
// shared-memory factorization runs on. parallel_for splits an index range
// into per-worker chunks and joins before returning; TaskGraph::run uses it
// to start one drain loop per worker.
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hpp"

namespace gesp {

class ThreadPool {
 public:
  /// Spawns workers; `threads` <= 1 means run everything inline.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Run body(begin, end, worker_id) over [0, n) split into contiguous
  /// chunks, one per worker (including the calling thread); returns after
  /// all chunks complete. A one-thread pool or n <= 1 runs inline.
  void parallel_for(index_t n,
                    const std::function<void(index_t, index_t, int)>& body);

 private:
  void worker_loop(int id);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable start_cv_, done_cv_;
  const std::function<void(index_t, index_t, int)>* body_ = nullptr;
  index_t total_ = 0;
  long generation_ = 0;
  int remaining_ = 0;
  bool shutdown_ = false;
};

/// Dependency-counter task DAG executed on a ThreadPool.
///
/// Build once with add_task/add_dependency (the graph must be acyclic —
/// the factorization only ever adds edges from earlier to later task ids),
/// then run() drains it: every worker pops ready tasks from a shared LIFO
/// stack, and completing a task decrements its successors' counters,
/// pushing any that reach zero. A graph is one-shot; build a fresh one per
/// factorization. If a task throws, no further tasks are started and the
/// first exception is rethrown from run() after all in-flight tasks
/// finish.
class TaskGraph {
 public:
  using TaskId = index_t;

  /// Registers a task; returns its id. Tasks with no dependencies are
  /// ready immediately when run() starts.
  TaskId add_task(std::function<void()> fn);

  /// Declares that `after` cannot start until `before` has completed.
  void add_dependency(TaskId before, TaskId after);

  index_t size() const { return static_cast<index_t>(tasks_.size()); }

  /// Executes the whole graph on `pool` (inline when the pool has one
  /// thread); returns when every task has completed.
  void run(ThreadPool& pool);

 private:
  struct Task {
    std::function<void()> fn;
    std::vector<TaskId> successors;
    index_t deps = 0;
  };
  std::vector<Task> tasks_;
};

}  // namespace gesp
