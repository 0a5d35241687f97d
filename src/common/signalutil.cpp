#include "common/signalutil.hpp"

#include <atomic>
#include <csignal>

namespace tileflow {

namespace {

std::atomic<CancellationToken*> g_token{nullptr};
std::atomic<int> g_count{0};
std::atomic<int> g_last{0};

extern "C" void
stopSignalHandler(int sig)
{
    // Async-signal-safe only: atomic stores and (on the escalation
    // path) sigaction + raise, both listed as safe by POSIX.
    const int prior = g_count.fetch_add(1, std::memory_order_relaxed);
    g_last.store(sig, std::memory_order_relaxed);
    if (CancellationToken* token =
            g_token.load(std::memory_order_relaxed))
        token->cancel();
    if (prior >= 1) {
        struct sigaction dfl = {};
        dfl.sa_handler = SIG_DFL;
        sigaction(sig, &dfl, nullptr);
        raise(sig);
    }
}

} // namespace

void
installStopSignalHandlers(CancellationToken* token)
{
    g_token.store(token, std::memory_order_relaxed);
    g_count.store(0, std::memory_order_relaxed);
    g_last.store(0, std::memory_order_relaxed);
    struct sigaction sa = {};
    sa.sa_handler = stopSignalHandler;
    sigemptyset(&sa.sa_mask);
    // No SA_RESTART: a process parked in sleep/poll should wake
    // promptly when the operator asks it to wind down.
    sa.sa_flags = 0;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

int
lastStopSignal()
{
    return g_last.load(std::memory_order_relaxed);
}

} // namespace tileflow
