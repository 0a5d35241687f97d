#include "common/stop.hpp"

namespace tileflow {

Deadline
Deadline::afterMs(int64_t ms)
{
    Deadline d;
    if (ms > 0) {
        d.end_ = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(ms);
        d.enabled_ = true;
    }
    return d;
}

Deadline
Deadline::alreadyExpired()
{
    Deadline d;
    d.end_ = std::chrono::steady_clock::now();
    d.enabled_ = true;
    return d;
}

Deadline
Deadline::afterRemainingMs(int64_t budget_ms, int64_t elapsed_ms)
{
    if (budget_ms <= 0)
        return Deadline();
    const int64_t remaining = budget_ms - elapsed_ms;
    return remaining > 0 ? afterMs(remaining) : alreadyExpired();
}

bool
Deadline::expired() const
{
    return enabled_ && std::chrono::steady_clock::now() >= end_;
}

int64_t
Deadline::remainingMs() const
{
    if (!enabled_)
        return -1;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        end_ - std::chrono::steady_clock::now());
    return left.count() > 0 ? left.count() : 0;
}

const char*
StopControl::stopReason(int64_t evaluations_so_far,
                        bool hold_deadline) const
{
    if (cancel_ && cancel_->cancelled())
        return "cancelled";
    if (!hold_deadline && deadline_.expired())
        return "deadline";
    if (maxEvaluations_ > 0 && evaluations_so_far >= maxEvaluations_)
        return "evaluation budget";
    return nullptr;
}

} // namespace tileflow
