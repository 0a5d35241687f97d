/**
 * @file
 * A small fixed-size thread pool for the mapper's evaluation pipeline.
 *
 * Deliberately work-stealing-free: N workers drain one mutex-protected
 * FIFO queue. The mapper's units of work (one mapping evaluation each)
 * are coarse enough — tree build plus full analysis — that a shared
 * queue is nowhere near contention-bound, and the simple design keeps
 * task start order deterministic.
 *
 * Nested use is safe: submit() and parallelFor() called from inside a
 * worker of the same pool run the work inline on the calling thread
 * instead of enqueueing, so a task that fans out cannot deadlock
 * waiting for workers that are all blocked on it.
 *
 * The worker count defaults to the TILEFLOW_THREADS environment
 * variable, falling back to std::thread::hardware_concurrency().
 * The mapper runs on ThreadPool::shared(), one persistent pool per
 * worker count.
 */

#ifndef TILEFLOW_COMMON_THREADPOOL_HPP
#define TILEFLOW_COMMON_THREADPOOL_HPP

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/telemetry.hpp"

namespace tileflow {

class ThreadPool
{
  public:
    /** Spawn `threads` workers; 0 means defaultThreadCount(). */
    explicit ThreadPool(size_t threads = 0);

    /** Joins all workers; pending tasks run to completion first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    size_t size() const { return workers_.size(); }

    /** TILEFLOW_THREADS if set (clamped to >= 1), else
     *  hardware_concurrency(), else 1. */
    static size_t defaultThreadCount();

    /**
     * The process-wide pool of `threads` workers (0 means
     * defaultThreadCount()), started on first use and intentionally
     * never torn down. Searches share it instead of starting their
     * own workers, so a process runs one set of worker threads (and
     * trace tids) per worker count however many searches it makes.
     * Idle workers block on the queue's condition variable. Several
     * threads may search on one pool at once: each waits only for its
     * own tasks. The workers do not survive fork(): a forked child
     * must exec() before it searches.
     */
    static ThreadPool& shared(size_t threads);

    /** True when the calling thread is one of this pool's workers. */
    bool onWorkerThread() const;

    /**
     * Schedule `fn` and return a future for its result. Called from a
     * worker of this pool, runs inline and returns a ready future.
     */
    template <typename F>
    auto
    submit(F&& fn) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        auto task =
            std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
        std::future<R> future = task->get_future();
        if (onWorkerThread()) {
            inlineTasks_.add();
            (*task)();
            return future;
        }
        enqueue([task]() { (*task)(); });
        return future;
    }

    /**
     * Run fn(0..n-1), blocking until all complete. Iterations run
     * concurrently across the workers; exceptions propagate to the
     * caller (the first thrown by iteration order). Runs serially when
     * the pool has a single worker or the caller is a worker.
     */
    void parallelFor(size_t n, const std::function<void(size_t)>& fn);

  private:
    /** A queued task and the time it entered the queue (telemetry). */
    struct QueuedTask
    {
        std::function<void()> fn;
        uint64_t enqueuedNs;
    };

    void enqueue(std::function<void()> task);
    void workerLoop();

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<QueuedTask> queue_;
    std::vector<std::thread> workers_;
    bool stopping_ = false;

    // Telemetry (process-wide instruments; see DESIGN.md §10). Tasks
    // that throw still count: the packaged_task layer captures the
    // exception before it can unwind past the accounting.
    Counter& tasks_ = MetricsRegistry::global().counter("threadpool.tasks");
    Counter& inlineTasks_ =
        MetricsRegistry::global().counter("threadpool.inline_tasks");
    Gauge& queueDepth_ =
        MetricsRegistry::global().gauge("threadpool.queue_depth");
    Histogram& queueWaitNs_ =
        MetricsRegistry::global().histogram("threadpool.queue_wait_ns");
    Histogram& taskRunNs_ =
        MetricsRegistry::global().histogram("threadpool.task_run_ns");
};

} // namespace tileflow

#endif // TILEFLOW_COMMON_THREADPOOL_HPP
