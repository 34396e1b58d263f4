// A small fixed-size worker pool for data-parallel batches.
//
// The view engine uses it to evaluate independent rule bodies of one
// evaluation level concurrently: the universe is immutable during the
// enumeration phase, so tasks share it read-only and only their result
// slots are written (one slot per task, no locking).
//
// Each task is handed a dense *worker slot* id: 0 for the calling thread
// (which participates in the batch), 1..num_workers() for pool threads.
// Callers use the slot to address per-worker scratch buffers without
// synchronization.

#ifndef IDL_COMMON_THREAD_POOL_H_
#define IDL_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace idl {

class ThreadPool {
 public:
  // Spawns `num_workers` threads (0 is valid: every batch then runs inline
  // on the calling thread, which keeps single-core machines overhead-free).
  explicit ThreadPool(size_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const { return workers_.size(); }
  // Worker slots available to ParallelFor callbacks: pool threads plus the
  // calling thread.
  size_t num_slots() const { return workers_.size() + 1; }

  // Runs fn(task, slot) for every task in [0, num_tasks), claiming tasks
  // dynamically. Blocks until all tasks finished. Not reentrant: fn must not
  // call ParallelFor on the same pool. Errors normally flow out through the
  // caller's result slots; if a task does throw, the batch still runs to
  // completion (no task is skipped, no worker dies) and the *first* exception
  // is rethrown on the calling thread afterwards — the pool remains usable.
  void ParallelFor(size_t num_tasks,
                   const std::function<void(size_t task, size_t slot)>& fn);

  // Worker count that saturates this machine when the calling thread
  // participates too: hardware_concurrency - 1 (0 on single-core boxes and
  // when concurrency is unknown).
  static size_t DefaultWorkers();

 private:
  void WorkerLoop(size_t slot);
  // Runs one task, capturing the first exception for RethrowPendingException.
  void RunTask(const std::function<void(size_t, size_t)>& fn, size_t task,
               size_t slot);
  void RethrowPendingException();

  std::vector<std::thread> workers_;

  std::mutex exception_mu_;
  std::exception_ptr first_exception_;  // first throw of the current batch

  std::mutex mu_;
  std::condition_variable work_cv_;   // signals a new batch (or shutdown)
  std::condition_variable done_cv_;   // signals batch completion
  const std::function<void(size_t, size_t)>* fn_ = nullptr;
  size_t next_task_ = 0;
  size_t num_tasks_ = 0;
  size_t busy_ = 0;        // workers currently executing batch tasks
  uint64_t batch_seq_ = 0;  // bumped per batch so sleepy workers can't rejoin
  bool stop_ = false;
};

// A fixed-size worker pool behind a *bounded* task queue: Submit() rejects
// with kResourceExhausted once `max_queue` tasks are pending instead of
// growing without bound. This is the admission-control primitive — the
// server's commit queue is a BoundedExecutor(1, N), so "queue full" surfaces
// to clients as a retryable overload error at the door rather than as
// unbounded latency inside.
//
// Tasks must not throw (report failures through their own channels — e.g.
// the server parks a Status in the commit ticket); a throwing task
// terminates the process rather than being silently swallowed.
class BoundedExecutor {
 public:
  BoundedExecutor(size_t num_threads, size_t max_queue);
  // Drains: queued and running tasks complete before destruction returns.
  ~BoundedExecutor();

  BoundedExecutor(const BoundedExecutor&) = delete;
  BoundedExecutor& operator=(const BoundedExecutor&) = delete;

  // Enqueues `task` for asynchronous execution. Errors:
  //   kResourceExhausted  — queue full (admission rejection; retry later)
  //   kFailedPrecondition — Shutdown() already called
  Status Submit(std::function<void()> task);

  // Stops accepting work and joins the workers. With drain=true every
  // already-queued task still runs; with drain=false queued-but-unstarted
  // tasks are destroyed without running (their owners see them vanish —
  // see the server's shutdown path, which fails pending tickets first).
  // Idempotent; the first call's drain mode wins.
  void Shutdown(bool drain = true);

  // Tasks queued but not yet claimed by a worker (instantaneous; racy by
  // nature — use for admission heuristics and metrics, not invariants).
  size_t queue_depth() const;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  const size_t max_queue_;
  bool shutdown_ = false;
  bool drain_ = true;
};

}  // namespace idl

#endif  // IDL_COMMON_THREAD_POOL_H_
