#include "common/work_stealing_pool.hpp"

#include <utility>

#include "common/status.hpp"

namespace entk {

namespace {

/// Steal sweeps an idle worker spins through before parking. Each
/// sweep revisits the external queue and every neighbor, so the spin
/// budget bounds wasted cycles without a clock.
constexpr int kSpinSweeps = 64;

/// Fairness tick period: every Nth claim inspects the external queue
/// before the claimer's own deque (power of two — the tick uses a
/// mask). Small enough that an off-pool submission never waits behind
/// more than a few self-spawned continuations.
constexpr std::uint32_t kInjectPeriod = 32;

/// Which pool (if any) owns the calling thread. Lets submit_local
/// route continuations to the caller's own deque.
thread_local WorkStealingPool* t_pool = nullptr;
thread_local std::size_t t_worker_index = 0;

}  // namespace

WorkStealingPool::WorkStealingPool(std::size_t threads,
                                   PoolMetricFn metrics)
    : thread_count_(threads), metrics_(std::move(metrics)) {
  ENTK_CHECK(threads >= 1, "work-stealing pool needs at least one worker");
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // Spawn only after every Worker exists: thieves index the whole
  // vector from their first sweep.
  for (std::size_t i = 0; i < threads; ++i) {
    workers_[i]->thread = std::thread([this, i] { worker_loop(i); });
  }
}

WorkStealingPool::~WorkStealingPool() { shutdown(); }

bool WorkStealingPool::on_worker_thread() const { return t_pool == this; }

bool WorkStealingPool::submit_local(TaskFn task) {
  ENTK_CHECK(static_cast<bool>(task), "task must be callable");
  if (t_pool != this) return try_submit_external(std::move(task));
  Worker& self = *workers_[t_worker_index];
  {
    MutexLock lock(self.mutex);
    // The stopping check lives inside the queue critical section:
    // shutdown() sweeps every queue lock after raising the flag, so an
    // accepted push is either drained by the workers or by the
    // shutdown thread — never stranded.
    if (stopping_.load(std::memory_order_relaxed)) return false;
    self.deque.push_bottom(std::move(task));
    pending_.fetch_add(1, std::memory_order_seq_cst);
  }
  note_submitted();
  return true;
}

bool WorkStealingPool::try_submit_external(TaskFn task) {
  ENTK_CHECK(static_cast<bool>(task), "task must be callable");
  {
    MutexLock lock(inject_mutex_);
    if (stopping_.load(std::memory_order_relaxed)) return false;
    inject_.push_bottom(std::move(task));
    pending_.fetch_add(1, std::memory_order_seq_cst);
  }
  note_submitted();
  return true;
}

void WorkStealingPool::submit_external(TaskFn task) {
  ENTK_CHECK(try_submit_external(std::move(task)), "submit after shutdown");
}

void WorkStealingPool::note_submitted() {
  // Dekker pairing with park(): the submitter orders pending-increment
  // before the sleeper read, the parker orders sleeper-increment
  // before the pending re-check — at least one side observes the
  // other, so no wakeup is lost.
  if (sleepers_.load(std::memory_order_seq_cst) == 0) return;
  MutexLock lock(state_mutex_);
  work_cv_.notify_one();
}

TaskFn WorkStealingPool::pop_own(Worker& self) {
  MutexLock lock(self.mutex);
  if (self.deque.empty()) return {};
  TaskFn task = self.deque.pop_bottom();
  active_.fetch_add(1, std::memory_order_seq_cst);
  pending_.fetch_sub(1, std::memory_order_seq_cst);
  return task;
}

TaskFn WorkStealingPool::pop_inject() {
  MutexLock lock(inject_mutex_);
  if (inject_.empty()) return {};
  TaskFn task = inject_.pop_top();
  active_.fetch_add(1, std::memory_order_seq_cst);
  pending_.fetch_sub(1, std::memory_order_seq_cst);
  return task;
}

TaskFn WorkStealingPool::take_task(std::size_t index) {
  Worker& self = *workers_[index];
  // Fairness tick: a worker spawning its own continuations (LIFO,
  // submit_local) would otherwise never look at the external queue —
  // a self-sustaining loop could starve off-pool submitters forever.
  const bool inject_first = (++self.ticks & (kInjectPeriod - 1)) == 0;
  if (inject_first) {
    if (TaskFn claimed = pop_inject()) return claimed;
    if (TaskFn claimed = pop_own(self)) return claimed;
  } else {
    if (TaskFn claimed = pop_own(self)) return claimed;
    if (TaskFn claimed = pop_inject()) return claimed;
  }
  // Neighbor-order sweep; try_lock so a contended victim never
  // convoys thieves behind it.
  for (std::size_t offset = 1; offset < thread_count_; ++offset) {
    Worker& victim = *workers_[(index + offset) % thread_count_];
    if (!victim.mutex.try_lock()) continue;
    TaskFn task;
    if (!victim.deque.empty()) {
      task = victim.deque.pop_top();
      active_.fetch_add(1, std::memory_order_seq_cst);
      pending_.fetch_sub(1, std::memory_order_seq_cst);
    }
    victim.mutex.unlock();
    if (task) {
      stolen_.fetch_add(1, std::memory_order_relaxed);
      note_metric(PoolMetric::kStolen, 1);
      return task;
    }
  }
  return {};
}

void WorkStealingPool::run_task(TaskFn task) {
  task();
  task.reset();
  executed_.fetch_add(1, std::memory_order_relaxed);
  note_metric(PoolMetric::kExecuted, 1);
  if (active_.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
      pending_.load(std::memory_order_seq_cst) == 0) {
    MutexLock lock(state_mutex_);
    idle_cv_.notify_all();
  }
}

bool WorkStealingPool::park() {
  std::uint64_t parked = 0;
  bool live = true;
  {
    MutexLock lock(state_mutex_);
    for (;;) {
      if (pending_.load(std::memory_order_seq_cst) != 0) break;
      if (stopping_.load(std::memory_order_relaxed)) {
        live = false;
        break;
      }
      sleepers_.fetch_add(1, std::memory_order_seq_cst);
      if (pending_.load(std::memory_order_seq_cst) != 0) {
        sleepers_.fetch_sub(1, std::memory_order_relaxed);
        break;
      }
      ++parked;
      work_cv_.wait(state_mutex_);
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  if (parked != 0) {
    parks_.fetch_add(parked, std::memory_order_relaxed);
    note_metric(PoolMetric::kParked, parked);
  }
  return live;
}

void WorkStealingPool::worker_loop(std::size_t index) {
  t_pool = this;
  t_worker_index = index;
  for (;;) {
    TaskFn task = take_task(index);
    if (task) {
      run_task(std::move(task));
      continue;
    }
    // Bounded spin: most idle gaps are one-task-short, and a steal
    // sweep is far cheaper than a park/unpark round trip.
    bool found = false;
    for (int sweep = 0; sweep < kSpinSweeps && !found; ++sweep) {
      if (pending_.load(std::memory_order_seq_cst) != 0) {
        task = take_task(index);
        found = static_cast<bool>(task);
      }
      if (!found) std::this_thread::yield();
    }
    if (found) {
      run_task(std::move(task));
      continue;
    }
    if (!park()) return;  // stopping and drained
  }
}

void WorkStealingPool::shutdown() {
  bool joiner = false;
  {
    MutexLock lock(state_mutex_);
    stopping_.store(true, std::memory_order_seq_cst);
    work_cv_.notify_all();
    if (!join_started_) {
      join_started_ = true;
      joiner = true;
    }
  }
  if (joiner) {
    // Queue-lock barrier: a submission that read stopping_ == false
    // finishes its push before these sweeps return; one that locks
    // afterwards observes the flag and is refused. Either way nothing
    // is accepted past this point.
    { MutexLock lock(inject_mutex_); }
    for (auto& worker : workers_) {
      MutexLock lock(worker->mutex);
    }
    for (auto& worker : workers_) worker->thread.join();
    // Drain guarantee: whatever a racing submission stranded after the
    // workers exited still runs, on this thread.
    drain_inline();
    MutexLock lock(state_mutex_);
    joined_ = true;
    joined_cv_.notify_all();
    idle_cv_.notify_all();
  } else {
    // Late caller: shutdown() must not return while workers may still
    // be touching this object, so wait for the joining thread.
    MutexLock lock(state_mutex_);
    while (!joined_) joined_cv_.wait(state_mutex_);
  }
}

void WorkStealingPool::drain_inline() {
  for (;;) {
    TaskFn task;
    {
      MutexLock lock(inject_mutex_);
      if (!inject_.empty()) {
        task = inject_.pop_top();
        active_.fetch_add(1, std::memory_order_seq_cst);
        pending_.fetch_sub(1, std::memory_order_seq_cst);
      }
    }
    if (!task) {
      for (auto& worker : workers_) {
        MutexLock lock(worker->mutex);
        if (!worker->deque.empty()) {
          task = worker->deque.pop_top();
          active_.fetch_add(1, std::memory_order_seq_cst);
          pending_.fetch_sub(1, std::memory_order_seq_cst);
          break;
        }
      }
    }
    if (!task) return;
    run_task(std::move(task));
  }
}

void WorkStealingPool::wait_idle() {
  MutexLock lock(state_mutex_);
  // Read order matters: pending first, then active (claims bump
  // active_ before dropping pending_).
  while (pending_.load(std::memory_order_seq_cst) != 0 ||
         active_.load(std::memory_order_seq_cst) != 0) {
    idle_cv_.wait(state_mutex_);
  }
}

WorkStealingPool::Stats WorkStealingPool::stats() const {
  Stats stats;
  stats.executed = executed_.load(std::memory_order_relaxed);
  stats.stolen = stolen_.load(std::memory_order_relaxed);
  stats.parks = parks_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace entk
