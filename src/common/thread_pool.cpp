#include "common/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace gesp {

ThreadPool::ThreadPool(int threads) {
  const int extra = std::max(0, threads - 1);
  // Workers inherit the spawner's trace rank so their spans land on
  // "rank R / worker W" tracks even when a pool runs inside a simulated
  // MiniMPI rank thread.
  const int rank = trace::thread_rank();
  workers_.reserve(static_cast<std::size_t>(extra));
  for (int i = 0; i < extra; ++i)
    workers_.emplace_back([this, i, rank] {
      trace::set_thread_track(rank, i + 1);
      worker_loop(i + 1);
    });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    ++generation_;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::parallel_for(
    index_t n, const std::function<void(index_t, index_t, int)>& body) {
  const int P = num_threads();
  if (P == 1 || n <= 1) {
    if (n > 0) body(0, n, 0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    body_ = &body;
    total_ = n;
    remaining_ = static_cast<int>(workers_.size());
    ++generation_;
  }
  start_cv_.notify_all();
  // The calling thread takes chunk 0.
  const index_t chunk = (n + P - 1) / P;
  body(0, std::min(chunk, n), 0);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return remaining_ == 0; });
  body_ = nullptr;
}

void ThreadPool::worker_loop(int id) {
  long seen = 0;
  while (true) {
    const std::function<void(index_t, index_t, int)>* body = nullptr;
    index_t n = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock,
                     [&] { return shutdown_ || generation_ != seen; });
      seen = generation_;
      if (shutdown_) return;
      body = body_;
      n = total_;
    }
    if (body) {
      const int P = num_threads();
      const index_t chunk = (n + P - 1) / P;
      const index_t begin = std::min<index_t>(n, chunk * id);
      const index_t end = std::min<index_t>(n, begin + chunk);
      if (begin < end) (*body)(begin, end, id);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--remaining_ == 0) done_cv_.notify_all();
    }
  }
}

TaskGraph::TaskId TaskGraph::add_task(std::function<void()> fn) {
  tasks_.push_back(Task{std::move(fn), {}, 0});
  return static_cast<TaskId>(tasks_.size()) - 1;
}

void TaskGraph::add_dependency(TaskId before, TaskId after) {
  tasks_[static_cast<std::size_t>(before)].successors.push_back(after);
  ++tasks_[static_cast<std::size_t>(after)].deps;
}

void TaskGraph::run(ThreadPool& pool) {
  const index_t n = size();
  if (n == 0) return;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<index_t> pending(static_cast<std::size_t>(n));
  std::vector<TaskId> ready;
  ready.reserve(static_cast<std::size_t>(n));
  for (index_t t = 0; t < n; ++t) {
    pending[static_cast<std::size_t>(t)] =
        tasks_[static_cast<std::size_t>(t)].deps;
    if (pending[static_cast<std::size_t>(t)] == 0) ready.push_back(t);
  }
  index_t completed = 0;
  bool stop = false;
  std::exception_ptr err;
  metrics::Counter& tasks_run = metrics::global().counter("taskgraph.tasks");
  trace::counter("taskgraph.ready", static_cast<double>(ready.size()));

  const std::function<void(index_t, index_t, int)> drain =
      [&](index_t, index_t, int) {
        std::unique_lock<std::mutex> lock(mu);
        for (;;) {
          cv.wait(lock, [&] { return stop || !ready.empty(); });
          if (stop) return;
          const TaskId t = ready.back();
          ready.pop_back();
          trace::counter("taskgraph.ready",
                         static_cast<double>(ready.size()));
          lock.unlock();
          std::exception_ptr e;
          try {
            tasks_[static_cast<std::size_t>(t)].fn();
          } catch (...) {
            e = std::current_exception();
          }
          tasks_run.inc();
          lock.lock();
          if (e) {
            if (!err) err = e;
            stop = true;
            cv.notify_all();
            return;
          }
          bool pushed = false;
          for (TaskId s : tasks_[static_cast<std::size_t>(t)].successors)
            if (--pending[static_cast<std::size_t>(s)] == 0) {
              ready.push_back(s);
              pushed = true;
            }
          if (pushed)
            trace::counter("taskgraph.ready",
                           static_cast<double>(ready.size()));
          if (++completed == n) {
            stop = true;
            cv.notify_all();
            return;
          }
          if (!ready.empty()) cv.notify_all();
        }
      };
  // One drain loop per worker; with P == 1 it drains inline on the
  // calling thread.
  pool.parallel_for(static_cast<index_t>(pool.num_threads()), drain);
  if (err) std::rethrow_exception(err);
}

}  // namespace gesp
