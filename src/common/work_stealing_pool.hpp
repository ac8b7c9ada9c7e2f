// Work-stealing thread pool: per-thread ring-buffer deques with
// neighbor-order stealing.
//
// Each worker owns a deque: the owner pushes and pops at the BOTTOM
// (LIFO, so freshly spawned subtasks run hot in cache), thieves take
// from the TOP (FIFO, so the oldest — usually largest — work
// migrates). Off-pool callers submit into a shared external queue
// that workers drain FIFO between local work, which keeps external
// submissions fair against a worker busily feeding itself. An idle
// worker sweeps its neighbors in ring order (index+1, index+2, ...),
// spins through a bounded number of sweeps, then parks on a CondVar
// until new work or shutdown.
//
// This is the lock-per-queue variant of the classic Chase-Lev design:
// every deque is guarded by its own ranked entk::Mutex
// (LockRank::kWorkStealingQueue) so the pool stays fully visible to
// Clang's thread-safety analysis and the lock-rank validator — the
// queues are leaf locks, never nested with each other or with the
// pool's park/state lock (LockRank::kWorkStealingPool). Steals use
// try_lock and move on, so a contended victim never convoys thieves.
//
// Shutdown drains: every task accepted before shutdown() executes —
// workers drain until empty, and whatever a racing submission strands
// after the workers exit is executed inline by the joining thread.
//
// The pool reports steal/park/execute counters two ways: pool-local
// Stats (stats()) and an optional PoolMetricFn sink, which the obs
// layer binds to the well-known "pool.*" metrics registry counters
// (obs::pool_metric_fn) — common/ cannot depend on obs/, so the sink
// is injected by the layer that creates the pool.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/task_fn.hpp"

namespace entk {

/// Counter events a pool reports through its metric sink.
enum class PoolMetric {
  kExecuted,  ///< Tasks run to completion.
  kStolen,    ///< Tasks taken from another worker's deque.
  kParked,    ///< CondVar waits entered after the spin budget.
};

/// Metric sink: called with an event and a count delta, from worker
/// threads. Must not take locks ranked <= kWorkStealingPool.
using PoolMetricFn = std::function<void(PoolMetric, std::uint64_t)>;

class WorkStealingPool {
 public:
  /// Spawns `threads` workers (>= 1). `metrics`, when set, receives
  /// steal/park/execute counter deltas.
  explicit WorkStealingPool(std::size_t threads,
                            PoolMetricFn metrics = nullptr);

  /// Equivalent to shutdown().
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  /// The general entry point. On a pool worker thread: pushes onto the
  /// caller's own deque bottom (LIFO — continuations run next, idle
  /// neighbors steal the backlog). Anywhere else: falls back to
  /// try_submit_external. Returns false (and drops the task) once
  /// shutdown has started.
  bool submit_local(TaskFn task);

  /// Enqueues onto the shared external queue unless shutdown has
  /// started; safe to call concurrently with shutdown() from any
  /// thread. Returns false (and drops the task) once stopping.
  bool try_submit_external(TaskFn task);

  /// Enqueues onto the shared external queue; aborts if shutdown has
  /// already started — callers that can race teardown use
  /// try_submit_external() instead.
  void submit_external(TaskFn task);

  /// Stops accepting tasks, drains every queue and joins all workers.
  /// Idempotent and safe to call concurrently from multiple threads:
  /// every call returns only after all workers have been joined.
  void shutdown();

  /// Blocks until all accepted tasks have finished.
  void wait_idle();

  std::size_t size() const { return thread_count_; }

  /// Whether the calling thread is one of THIS pool's workers.
  bool on_worker_thread() const;

  /// Monotonic counter snapshot (also streamed to the metric sink).
  struct Stats {
    std::uint64_t executed = 0;
    std::uint64_t stolen = 0;
    std::uint64_t parks = 0;
  };
  Stats stats() const;

 private:
  /// Growable power-of-two circular buffer. Owner end is the BOTTOM
  /// (push_bottom/pop_bottom), thief end is the TOP (pop_top).
  class RingDeque {
   public:
    bool empty() const { return size_ == 0; }

    void push_bottom(TaskFn task) {
      if (size_ == buffer_.size()) grow();
      buffer_[(head_ + size_) & mask_] = std::move(task);
      ++size_;
    }

    TaskFn pop_bottom() {
      --size_;
      return std::move(buffer_[(head_ + size_) & mask_]);
    }

    TaskFn pop_top() {
      TaskFn task = std::move(buffer_[head_]);
      head_ = (head_ + 1) & mask_;
      --size_;
      return task;
    }

   private:
    void grow() {
      std::vector<TaskFn> doubled(buffer_.size() * 2);
      for (std::size_t i = 0; i < size_; ++i) {
        doubled[i] = std::move(buffer_[(head_ + i) & mask_]);
      }
      buffer_ = std::move(doubled);
      mask_ = buffer_.size() - 1;
      head_ = 0;
    }

    std::vector<TaskFn> buffer_ = std::vector<TaskFn>(64);
    std::size_t mask_ = 63;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  struct Worker {
    Mutex mutex{LockRank::kWorkStealingQueue};
    RingDeque deque ENTK_GUARDED_BY(mutex);
    std::thread thread;
    /// Claim counter for the fairness tick (take_task); touched only
    /// by the owning worker thread, so it needs no lock.
    std::uint32_t ticks = 0;
  };

  void worker_loop(std::size_t index);
  /// One pass over own-bottom, external-top and neighbors-top; empty
  /// TaskFn when nothing was found. Every kInjectPeriod-th claim looks
  /// at the external queue FIRST, so off-pool submissions stay fair
  /// against a worker busily feeding its own deque.
  TaskFn take_task(std::size_t index);
  /// Claims the caller's own deque bottom; empty TaskFn when empty.
  TaskFn pop_own(Worker& self);
  /// Claims the external queue top; empty TaskFn when empty.
  TaskFn pop_inject() ENTK_EXCLUDES(inject_mutex_);
  /// Runs one claimed task and maintains active/idle accounting.
  void run_task(TaskFn task);
  /// Blocks until work arrives; returns false when the pool is
  /// stopping and drained (the worker exits).
  bool park() ENTK_EXCLUDES(state_mutex_);
  /// Marks a task accepted and wakes a parked worker if any.
  void note_submitted() ENTK_EXCLUDES(state_mutex_);
  /// Executes tasks stranded by racing submissions after the workers
  /// exited (shutdown drain guarantee).
  void drain_inline();
  void note_metric(PoolMetric metric, std::uint64_t n) const {
    if (metrics_) metrics_(metric, n);
  }

  const std::size_t thread_count_;
  const PoolMetricFn metrics_;
  std::vector<std::unique_ptr<Worker>> workers_;

  Mutex inject_mutex_{LockRank::kWorkStealingQueue};
  RingDeque inject_ ENTK_GUARDED_BY(inject_mutex_);

  /// Tasks accepted but not yet started. Claims decrement AFTER the
  /// claimer bumped active_, so (pending_ == 0 && active_ == 0) read
  /// in that order is a sound idle check.
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> active_{0};
  std::atomic<std::size_t> sleepers_{0};
  std::atomic<bool> stopping_{false};

  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> stolen_{0};
  std::atomic<std::uint64_t> parks_{0};

  Mutex state_mutex_{LockRank::kWorkStealingPool};
  CondVar work_cv_;
  CondVar idle_cv_;
  CondVar joined_cv_;
  bool join_started_ ENTK_GUARDED_BY(state_mutex_) = false;
  bool joined_ ENTK_GUARDED_BY(state_mutex_) = false;
};

}  // namespace entk
