#include "common/membudget.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <new>

#if defined(__GLIBC__)
#include <malloc.h>
#endif
#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/logging.hpp"
#include "common/strings.hpp"
#include "common/telemetry.hpp"

namespace tileflow {

namespace {

/** splitmix64 finalizer (same mixer as FaultInjector's). */
uint64_t
mix64(uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Parse "<MB>" from an environment variable; 0 when unset/invalid. */
uint64_t
envMb(const char* name)
{
    const char* env = std::getenv(name);
    if (!env || !*env)
        return 0;
    const long long mb = std::strtoll(env, nullptr, 10);
    return mb > 0 ? uint64_t(mb) << 20 : 0;
}

// Installed-new-handler bookkeeping. The depth guard stops the
// handler from recursing when the reclaim path itself allocates, and
// from spinning when reclaim frees nothing: operator new re-invokes
// the handler until it throws.
std::atomic<bool> g_newHandlerInstalled{false};
thread_local int t_newHandlerDepth = 0;

} // namespace

const char*
memPressureName(MemPressure level)
{
    switch (level) {
    case MemPressure::Ok:
        return "ok";
    case MemPressure::Soft:
        return "soft";
    case MemPressure::Hard:
        return "hard";
    }
    return "?";
}

MemoryBudget::MemoryBudget()
{
    const uint64_t soft = envMb("TILEFLOW_MEM_SOFT_MB");
    const uint64_t hard = envMb("TILEFLOW_MEM_HARD_MB");
    if (soft > 0 || hard > 0)
        configure(soft, hard);
}

MemoryBudget&
MemoryBudget::global()
{
    static MemoryBudget budget;
    return budget;
}

void
MemoryBudget::configure(uint64_t softBytes, uint64_t hardBytes)
{
    if (hardBytes > 0 && softBytes > 0 && hardBytes < softBytes)
        hardBytes = softBytes;
    softBytes_.store(softBytes, std::memory_order_relaxed);
    hardBytes_.store(hardBytes, std::memory_order_relaxed);
    enabled_.store(softBytes > 0 || hardBytes > 0,
                   std::memory_order_relaxed);
    MetricsRegistry::global()
        .gauge("mem.soft_limit_bytes")
        .set(double(softBytes));
    MetricsRegistry::global()
        .gauge("mem.hard_limit_bytes")
        .set(double(hardBytes));
}

uint64_t
MemoryBudget::softLimitBytes() const
{
    return softBytes_.load(std::memory_order_relaxed);
}

uint64_t
MemoryBudget::hardLimitBytes() const
{
    return hardBytes_.load(std::memory_order_relaxed);
}

uint64_t
MemoryBudget::processRssBytes()
{
#if defined(__unix__)
    // /proc/self/statm: "size resident shared text lib data dt", in
    // pages. Field 2 is the resident set.
    std::FILE* f = std::fopen("/proc/self/statm", "rb");
    if (!f)
        return 0;
    unsigned long long sizePages = 0;
    unsigned long long residentPages = 0;
    const int got =
        std::fscanf(f, "%llu %llu", &sizePages, &residentPages);
    std::fclose(f);
    if (got != 2)
        return 0;
    static const long pageSize = ::sysconf(_SC_PAGESIZE);
    return uint64_t(residentPages) *
           uint64_t(pageSize > 0 ? pageSize : 4096);
#else
    return 0;
#endif
}

MemPressure
MemoryBudget::level() const
{
    return MemPressure(level_.load(std::memory_order_relaxed));
}

void
MemoryBudget::setPollInterval(uint32_t every)
{
    pollEvery_.store(every == 0 ? 1 : every, std::memory_order_relaxed);
}

MemPressure
MemoryBudget::poll()
{
    if (!enabled_.load(std::memory_order_relaxed))
        return MemPressure::Ok;
    const uint32_t n = pollCount_.fetch_add(1, std::memory_order_relaxed);
    if (n % pollEvery_.load(std::memory_order_relaxed) != 0)
        return level();
    return sample();
}

MemPressure
MemoryBudget::sample()
{
    if (!enabled_.load(std::memory_order_relaxed))
        return MemPressure::Ok;
    std::lock_guard<std::recursive_mutex> lock(mutex_);
    return sampleLocked(processRssBytes());
}

MemPressure
MemoryBudget::sampleLocked(uint64_t rss)
{
    static Gauge& gRss = MetricsRegistry::global().gauge("mem.rss_bytes");
    static Gauge& gLevel =
        MetricsRegistry::global().gauge("mem.pressure_level");
    static Counter& cSoft =
        MetricsRegistry::global().counter("mem.pressure_soft_events");
    static Counter& cHard =
        MetricsRegistry::global().counter("mem.pressure_hard_events");

    gRss.set(double(rss));
    const uint64_t soft = softBytes_.load(std::memory_order_relaxed);
    const uint64_t hard = hardBytes_.load(std::memory_order_relaxed);
    MemPressure next = MemPressure::Ok;
    if (hard > 0 && rss >= hard)
        next = MemPressure::Hard;
    else if (soft > 0 && rss >= soft)
        next = MemPressure::Soft;

    const MemPressure prev = level();
    if (int(next) > int(prev)) {
        // Upward transition: count every level crossed (a direct
        // ok→hard jump counts a soft event too, so hard_events ≤
        // soft_events always holds — telemetry_check asserts it).
        if (int(prev) < int(MemPressure::Soft) &&
            int(next) >= int(MemPressure::Soft))
            cSoft.add();
        if (int(next) == int(MemPressure::Hard))
            cHard.add();
    }
    level_.store(int(next), std::memory_order_relaxed);
    if (int(next) > int(prev))
        reclaimLocked(next);
    else if (next == MemPressure::Hard)
        // Pinned at hard: keep flushing — new entries may have
        // accumulated since the transition (cheap when already empty).
        reclaimLocked(MemPressure::Hard);

    if (next == MemPressure::Hard) {
#if defined(__GLIBC__)
        // Return freed arena pages to the kernel so RSS actually
        // falls and hard pressure is recoverable, not absorbing.
        ::malloc_trim(0);
#endif
        // Re-sample: a successful flush can clear the pressure at
        // once, letting the very next evaluation proceed.
        const uint64_t after = processRssBytes();
        gRss.set(double(after));
        MemPressure settled = MemPressure::Ok;
        if (hard > 0 && after >= hard)
            settled = MemPressure::Hard;
        else if (soft > 0 && after >= soft)
            settled = MemPressure::Soft;
        level_.store(int(settled), std::memory_order_relaxed);
    }
    gLevel.set(double(level_.load(std::memory_order_relaxed)));
    return level();
}

int
MemoryBudget::registerComponent(ShrinkFn shrink)
{
    std::lock_guard<std::recursive_mutex> lock(mutex_);
    const int id = nextId_++;
    components_[id] = std::move(shrink);
    return id;
}

void
MemoryBudget::unregisterComponent(int id)
{
    std::lock_guard<std::recursive_mutex> lock(mutex_);
    components_.erase(id);
}

size_t
MemoryBudget::componentCount() const
{
    std::lock_guard<std::recursive_mutex> lock(mutex_);
    return components_.size();
}

uint64_t
MemoryBudget::reclaim(MemPressure severity)
{
    std::lock_guard<std::recursive_mutex> lock(mutex_);
    return reclaimLocked(severity);
}

uint64_t
MemoryBudget::reclaimLocked(MemPressure severity)
{
    static Counter& cReclaims =
        MetricsRegistry::global().counter("mem.reclaims");
    static Counter& cReclaimed =
        MetricsRegistry::global().counter("mem.reclaimed_bytes");
    cReclaims.add();
    uint64_t freed = 0;
    for (auto& [id, shrink] : components_)
        if (shrink)
            freed += shrink(severity);
    if (freed > 0)
        cReclaimed.add(freed);
    return freed;
}

void
MemoryBudget::newHandlerTrampoline()
{
    static Counter& cCalls =
        MetricsRegistry::global().counter("mem.new_handler_calls");
    static Counter& cReclaims =
        MetricsRegistry::global().counter("mem.new_handler_reclaims");
    cCalls.add();
    if (t_newHandlerDepth > 0)
        throw std::bad_alloc();
    ++t_newHandlerDepth;
    uint64_t freed = 0;
    try {
        freed = global().reclaim(MemPressure::Hard);
    } catch (...) {
        --t_newHandlerDepth;
        throw std::bad_alloc();
    }
    --t_newHandlerDepth;
    if (freed == 0)
        throw std::bad_alloc();
    cReclaims.add();
    // Returning retries the allocation; if it fails again, the next
    // invocation finds nothing left to free and throws.
}

void
MemoryBudget::installNewHandler()
{
    if (g_newHandlerInstalled.exchange(true))
        return;
    std::set_new_handler(&newHandlerTrampoline);
}

void
MemoryBudget::resetForTesting()
{
    std::lock_guard<std::recursive_mutex> lock(mutex_);
    components_.clear();
    enabled_.store(false, std::memory_order_relaxed);
    softBytes_.store(0, std::memory_order_relaxed);
    hardBytes_.store(0, std::memory_order_relaxed);
    pollEvery_.store(32, std::memory_order_relaxed);
    pollCount_.store(0, std::memory_order_relaxed);
    level_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------
// AllocFaultInjector
// ---------------------------------------------------------------------

AllocFaultInjector::AllocFaultInjector(double rate, uint64_t seed)
    : rate_(std::min(1.0, std::max(0.0, rate))), seed_(seed)
{
}

std::shared_ptr<const AllocFaultInjector>
AllocFaultInjector::fromEnv()
{
    const char* env = std::getenv("TILEFLOW_ALLOC_FAULT");
    if (!env || !*env)
        return nullptr;
    double rate = 0.0;
    uint64_t seed = 1;
    for (const std::string& piece : split(env, ',')) {
        const std::vector<std::string> kv = split(trim(piece), '=');
        if (kv.size() != 2) {
            warn("TILEFLOW_ALLOC_FAULT: ignoring malformed piece '",
                 piece, "'");
            continue;
        }
        const std::string key = trim(kv[0]);
        const std::string value = trim(kv[1]);
        if (key == "rate") {
            rate = std::strtod(value.c_str(), nullptr);
        } else if (key == "seed") {
            seed = std::strtoull(value.c_str(), nullptr, 10);
        } else {
            warn("TILEFLOW_ALLOC_FAULT: unknown key '", key, "'");
        }
    }
    if (rate <= 0.0)
        return nullptr;
    return std::make_shared<const AllocFaultInjector>(rate, seed);
}

const AllocFaultInjector*
AllocFaultInjector::env()
{
    static std::shared_ptr<const AllocFaultInjector> injector = fromEnv();
    return injector.get();
}

bool
AllocFaultInjector::decideKey(uint64_t key) const
{
    // 53-bit mantissa draw in [0, 1), pure in (seed, key).
    const uint64_t bits = mix64(key ^ mix64(seed_));
    const double u = double(bits >> 11) * 0x1.0p-53;
    return u < rate_;
}

uint64_t
AllocFaultInjector::textKey(const std::string& text)
{
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        hash ^= uint64_t(uint8_t(c));
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

} // namespace tileflow
