#include "common/threadpool.hpp"

#include <cstdlib>
#include <map>
#include <string>

namespace tileflow {

namespace {

/** Set inside workerLoop so nested submits detect their own pool. */
thread_local const ThreadPool* tls_current_pool = nullptr;

} // namespace

ThreadPool::ThreadPool(size_t threads)
{
    if (threads == 0)
        threads = defaultThreadCount();
    workers_.reserve(threads);
    for (size_t i = 0; i < threads; ++i)
        workers_.emplace_back([this]() { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& worker : workers_)
        worker.join();
}

size_t
ThreadPool::defaultThreadCount()
{
    if (const char* env = std::getenv("TILEFLOW_THREADS")) {
        const long n = std::strtol(env, nullptr, 10);
        if (n >= 1)
            return size_t(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? size_t(hw) : 1;
}

ThreadPool&
ThreadPool::shared(size_t threads)
{
    if (threads == 0)
        threads = defaultThreadCount();
    // Leaked on purpose, so no pool can go away under a running search
    // and no exit path has to join workers (the metrics they report to
    // are never destroyed either).
    static std::mutex mutex;
    static auto* pools = new std::map<size_t, ThreadPool*>();
    std::lock_guard<std::mutex> lock(mutex);
    ThreadPool*& pool = (*pools)[threads];
    if (pool == nullptr)
        pool = new ThreadPool(threads);
    return *pool;
}

bool
ThreadPool::onWorkerThread() const
{
    return tls_current_pool == this;
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(QueuedTask{std::move(task), telemetryNowNs()});
        queueDepth_.set(double(queue_.size()));
    }
    cv_.notify_one();
}

void
ThreadPool::workerLoop()
{
    tls_current_pool = this;
    for (;;) {
        QueuedTask task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock,
                     [this]() { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
            queueDepth_.set(double(queue_.size()));
        }
        const uint64_t start = telemetryNowNs();
        queueWaitNs_.observe(start - task.enqueuedNs);
        tasks_.add();
        {
            TraceSpan span("threadpool.task", "threadpool");
            task.fn();
        }
        taskRunNs_.observe(telemetryNowNs() - start);
    }
}

void
ThreadPool::parallelFor(size_t n, const std::function<void(size_t)>& fn)
{
    if (n == 0)
        return;
    if (n == 1 || size() <= 1 || onWorkerThread()) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    std::vector<std::future<void>> futures;
    futures.reserve(n);
    for (size_t i = 0; i < n; ++i)
        futures.push_back(submit([&fn, i]() { fn(i); }));
    // Join everything before rethrowing so no task outlives the call.
    std::exception_ptr first;
    for (std::future<void>& future : futures) {
        try {
            future.get();
        } catch (...) {
            if (!first)
                first = std::current_exception();
        }
    }
    if (first)
        std::rethrow_exception(first);
}

} // namespace tileflow
