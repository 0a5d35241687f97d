/**
 * @file
 * Cooperative cancellation and deadlines for long-running searches.
 *
 * The mapper's exploration loops (GA generations, MCTS rollout
 * batches) poll a StopControl at coarse boundaries and return
 * best-so-far with a `timedOut` flag instead of throwing — a search
 * that hits its wall-clock budget, its evaluation budget, or an
 * external cancel is a *degraded success*, never an error.
 *
 * All three stop sources are optional and composable:
 *  - Deadline: a wall-clock budget fixed when the search starts;
 *  - CancellationToken: an external kill switch, safe to trip from
 *    any thread (e.g. a signal handler thread or an RPC server);
 *  - an evaluation budget: a cap on Evaluator::evaluate calls.
 */

#ifndef TILEFLOW_COMMON_STOP_HPP
#define TILEFLOW_COMMON_STOP_HPP

#include <atomic>
#include <chrono>
#include <cstdint>

namespace tileflow {

/** A thread-safe external kill switch (sticky once tripped). */
class CancellationToken
{
  public:
    void cancel() { cancelled_.store(true, std::memory_order_relaxed); }

    bool
    cancelled() const
    {
        return cancelled_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<bool> cancelled_{false};
};

/** A wall-clock budget; default-constructed, it never expires. */
class Deadline
{
  public:
    /** Never expires. */
    Deadline() = default;

    /** Expires `ms` milliseconds from now (ms <= 0: never). */
    static Deadline afterMs(int64_t ms);

    /** Already expired (a budget consumed before this run began). */
    static Deadline alreadyExpired();

    /**
     * Arm for what is left of a budget partially consumed by earlier
     * (killed) runs: `budget_ms - elapsed_ms` from now.
     * budget_ms <= 0 means unlimited; a non-positive remainder means
     * already expired — NOT unlimited, which is what a naive
     * afterMs(budget - elapsed) would silently grant.
     */
    static Deadline afterRemainingMs(int64_t budget_ms, int64_t elapsed_ms);

    bool unlimited() const { return !enabled_; }

    bool expired() const;

    /** Milliseconds until expiry (clamped at 0); -1 when unlimited. */
    int64_t remainingMs() const;

  private:
    std::chrono::steady_clock::time_point end_{};
    bool enabled_ = false;
};

/**
 * Aggregated stop predicate the search loops poll. Checks are cheap
 * (one clock read + two loads) but still meant for coarse boundaries,
 * not inner loops. The evaluation count the caller passes in may be
 * accumulated racily across workers; budgets are best-effort — a
 * batch in flight when the budget trips still completes.
 */
class StopControl
{
  public:
    StopControl() = default;

    StopControl(Deadline deadline, const CancellationToken* cancel,
                int64_t max_evaluations)
        : deadline_(deadline),
          cancel_(cancel),
          maxEvaluations_(max_evaluations)
    {
    }

    /**
     * Why the search should stop, or nullptr to keep going. The
     * returned string is static (usable as a histogram key / result
     * field without ownership concerns). `hold_deadline` ignores the
     * deadline: a resumed search replaying its verdict log runs on to
     * the first candidate the log cannot serve.
     */
    const char* stopReason(int64_t evaluations_so_far,
                           bool hold_deadline = false) const;

    bool
    shouldStop(int64_t evaluations_so_far) const
    {
        return stopReason(evaluations_so_far) != nullptr;
    }

    const Deadline& deadline() const { return deadline_; }

  private:
    Deadline deadline_;
    const CancellationToken* cancel_ = nullptr;
    int64_t maxEvaluations_ = 0; // 0 = unlimited
};

} // namespace tileflow

#endif // TILEFLOW_COMMON_STOP_HPP
