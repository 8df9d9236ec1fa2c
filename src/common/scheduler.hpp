#pragma once
// Work-stealing task scheduler: the substrate under every parallel loop in
// the library (every loop calls Scheduler::current().parallel_for).
//
// The old flat pool partitioned each parallel_for into one chunk per thread
// and ran nested calls inline-serial, so batch-level and kernel-level
// parallelism could not compose: a conv-over-batch outer loop with fewer
// samples than cores left the remaining cores idle even though the per-plane
// kernels had tile-level work to give them. This scheduler makes fork/join
// regions nest:
//
//   - each worker owns a Chase–Lev deque: it pushes and pops its own tasks
//     LIFO (lock-free, cache-hot depth-first execution) while idle workers
//     steal FIFO from the other end, taking the oldest — i.e. largest —
//     subrange. Threads outside the pool submit through a small mutexed
//     injection queue and help execute while they wait, so any thread can
//     open a fork/join region.
//   - parallel_for decomposes [0, n) by recursive halving into stealable
//     subtasks down to a grain, instead of a fixed one-chunk-per-thread
//     partition. A nested parallel_for pushes subtasks onto the worker's own
//     deque, where other workers steal them: outer and inner loops interleave
//     instead of flattening.
//   - TaskGroup is the irregular-work primitive underneath: spawn() enqueues
//     closures, wait() helps execute until all of them (and their
//     descendants) finish, rethrowing the first exception any task threw.
//   - tasks are two raw words (thunk + context pointer): every scheduler
//     entry point blocks until its tasks finish, so closures live in the
//     spawner's frame and nothing is heap-allocated per task on the worker
//     path (externally injected tasks pass through one mutexed std::deque).
//
// Determinism contract: parallel_for invokes fn over a partition of [0, n)
// fixed by (n, grain, num_threads()) — recursive midpoint halving until a
// range is at most `grain` — regardless of which worker executes which leaf
// or in what order. Callers that keep per-invocation accumulation inside
// fn's own range (every kernel in linalg/ does) therefore get bitwise
// reproducible results under arbitrary stealing; reductions across leaves
// must combine partials in a fixed tree (see Conv2d::backward) rather than
// in completion order.
//
// Sizing: Scheduler::instance() honors RT_THREADS (benches and CI pin it for
// reproducible thread counts) and falls back to the hardware concurrency.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#include "common/function_ref.hpp"

namespace rt {

class Scheduler;

/// Two scheduling lanes. kBulk is the default: parallel_for leaves and
/// ordinary TaskGroup spawns — throughput work (retraining, eval batteries,
/// kernel row blocks). kServing marks latency-sensitive tasks (the serving
/// front-end's micro-batches): they are queued separately and every
/// acquisition point — worker loop, steal path, helping waiter — drains that
/// queue before touching any bulk work, so a serving task overtakes every
/// queued bulk leaf. Priority is non-preemptive: a bulk task already
/// executing runs to completion; overtaking happens at dequeue points.
enum class TaskPriority { kBulk, kServing };

namespace detail {

struct TaskGroupState;

/// One schedulable unit: a bare thunk plus the context it runs over. For
/// parallel_for subtasks [begin, end) is the remaining index range; spawned
/// closures ignore it. `priority` only routes the task at submit time
/// (serving tasks never enter the work-stealing deques).
struct Task {
  using Invoke = void (*)(void* ctx, std::int64_t begin, std::int64_t end);
  Invoke invoke = nullptr;
  void* ctx = nullptr;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  TaskGroupState* group = nullptr;
  TaskPriority priority = TaskPriority::kBulk;
};

/// Completion state shared by all tasks of one fork/join region. Lives in the
/// waiter's frame (TaskGroup member or parallel_for stack), so it needs no
/// allocation and no reference counting — wait() cannot return before every
/// task holding a pointer to it has finished.
struct TaskGroupState {
  std::atomic<std::int64_t> pending{0};
  std::atomic<bool> failed{false};
  std::exception_ptr exception;  ///< first failure; guarded by mutex
  std::mutex mutex;
  std::condition_variable done_cv;
};

struct Worker;

}  // namespace detail

/// Fixed-size work-stealing scheduler. Construct explicitly for tests and
/// benches; library code runs on Scheduler::current(), which defaults to
/// the process-wide Scheduler::instance().
class Scheduler {
 public:
  explicit Scheduler(int num_threads);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Total execution lanes: spawned workers plus the calling thread, which
  /// always participates in its own fork/join regions.
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn(begin, end) over a deterministic partition of [0, n): ranges
  /// are halved into stealable subtasks until at most `grain` wide (grain
  /// <= 0 picks a default of ~4 leaves per lane). Blocks until every leaf
  /// completes; rethrows the first exception a leaf threw. Safe to call from
  /// worker threads — nested calls compose instead of running inline-serial.
  void parallel_for(std::int64_t n,
                    FunctionRef<void(std::int64_t, std::int64_t)> fn,
                    std::int64_t grain = 0);

  /// Executes one queued serving-priority task if any, returning whether it
  /// did. Lets a latency-critical producer (the serving coalescer) guarantee
  /// the urgent lane drains without adopting an arbitrarily long bulk task
  /// the way a full wait_group() help could.
  bool help_urgent();

  /// Process-wide scheduler: RT_THREADS lanes when set, else the hardware
  /// concurrency.
  static Scheduler& instance();

  /// The scheduler the calling thread should submit to: the one whose worker
  /// is running this thread, an active SchedulerScope's, else instance().
  static Scheduler& current();

  /// RT_THREADS when set to a positive integer, else hardware concurrency.
  static int default_thread_count();

 private:
  friend class TaskGroup;
  friend class SchedulerScope;
  friend struct detail::Worker;

  /// Adds the task to its group and queues it: worker threads push onto
  /// their own deque (lock-free), external threads onto the injection
  /// queue. A full deque degrades to executing the task inline. Serving-
  /// priority tasks always go to the dedicated urgent queue, which every
  /// acquisition point drains first.
  void submit(const detail::Task& task);
  /// Runs one task, routing any exception into its group.
  void execute(const detail::Task& task);
  /// Helps until the group has no outstanding tasks, then rethrows its
  /// exception if any task failed. Executes unrelated tasks while waiting —
  /// a waiter is a full worker, which is what lets nested regions compose
  /// without idling a lane.
  void wait_group(detail::TaskGroupState& group);
  /// Pops or steals one runnable task. `self` is the calling worker's lane
  /// or -1 for external threads.
  bool try_acquire(int self, detail::Task& out);
  bool steal_from_others(int self, detail::Task& out);
  bool pop_injected(detail::Task& out);
  bool pop_urgent(detail::Task& out);
  void wake_one();
  void worker_main(int index);

  static void for_trampoline(void* ctx, std::int64_t begin, std::int64_t end);

  std::vector<std::unique_ptr<detail::Worker>> workers_;

  std::mutex inject_mutex_;
  std::deque<detail::Task> injected_;

  // Serving lane: a mutexed FIFO checked before any bulk source. The atomic
  // count keeps the empty case lock-free — bulk throughput pays one
  // uncontended seq_cst load per acquisition when no serving traffic exists
  // (seq_cst so a parker's post-registration re-check cannot miss a count
  // bumped before the wakeup signal).
  std::mutex urgent_mutex_;
  std::deque<detail::Task> urgent_;
  std::atomic<std::int64_t> urgent_count_{0};

  // Parked-worker wakeup: push bumps signals_ and pokes the condvar only
  // when someone is parked; parkers re-check the deques after registering,
  // and a bounded wait_for covers the remaining submit/park race window.
  std::atomic<std::uint64_t> signals_{0};
  std::atomic<int> parked_{0};
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  std::atomic<bool> stop_{false};
};

/// Fork/join group of spawned closures. spawn() never copies the closure —
/// it must outlive wait(), which is natural because wait() is what ends the
/// region:
///
///   TaskGroup tg;
///   auto shard = [&](...) {...};   // lives past tg.wait()
///   tg.spawn(shard_a); tg.spawn(shard_b);
///   tg.wait();                     // helps execute; rethrows first failure
///
/// Indexed loops should prefer Scheduler::parallel_for, which builds on the
/// same machinery with a deterministic decomposition.
class TaskGroup {
 public:
  explicit TaskGroup(Scheduler& scheduler = Scheduler::current(),
                     TaskPriority priority = TaskPriority::kBulk)
      : sched_(scheduler), priority_(priority) {}
  /// Priority-only construction against the calling thread's scheduler.
  explicit TaskGroup(TaskPriority priority)
      : TaskGroup(Scheduler::current(), priority) {}
  /// Waits for stragglers (swallowing their exceptions); call wait() on the
  /// success path so failures propagate.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues fn() as one task. Takes an lvalue on purpose: the callable is
  /// referenced, not copied, so a temporary would dangle.
  template <typename F>
  void spawn(F& fn) {
    submit(&TaskGroup::invoke_adapter<F>, &fn);
  }

  /// Blocks until every spawned task finished, executing queued tasks while
  /// waiting. Rethrows the first exception any task threw. The group is
  /// reusable afterwards.
  void wait();

 private:
  template <typename F>
  static void invoke_adapter(void* ctx, std::int64_t, std::int64_t) {
    (*static_cast<F*>(ctx))();
  }
  void submit(detail::Task::Invoke invoke, void* ctx);

  Scheduler& sched_;
  TaskPriority priority_ = TaskPriority::kBulk;
  detail::TaskGroupState state_;
};

/// Redirects Scheduler::current() — and through it every library loop and
/// kernel — to a specific scheduler for the calling thread's scope.
/// Benches use this to measure fixed thread counts without touching the
/// process-wide instance.
class SchedulerScope {
 public:
  explicit SchedulerScope(Scheduler& scheduler);
  ~SchedulerScope();

  SchedulerScope(const SchedulerScope&) = delete;
  SchedulerScope& operator=(const SchedulerScope&) = delete;

 private:
  Scheduler* previous_;
};

}  // namespace rt
