/**
 * @file
 * Process-wide memory budget: RSS sampling and a three-level
 * pressure state machine driving deterministic shrink callbacks
 * (DESIGN.md §11).
 *
 * The budget makes memory exhaustion a *classified, recoverable,
 * observable* event instead of a crash. Reclaimable components (the
 * evaluation caches, the telemetry trace buffers) register only a
 * shrink callback — the caches keep their exact byte accounting in
 * their own gauges; poll() samples RSS from /proc/self/statm every
 * Nth call and walks the state machine:
 *
 *   ok ──rss ≥ soft──▶ soft ──rss ≥ hard──▶ hard
 *
 * Crossing into *soft* halves cache caps and evicts down to them;
 * crossing into (or staying at) *hard* flushes the reclaimable
 * components outright, and the mapper's guardedEvaluate chokepoint
 * fails the in-flight evaluation as a tagged-infeasible
 * CachedEval{failed, "oom"} — never an abort. Levels fall back as RSS
 * recedes; caps, once halved, stay halved (a deterministic ratchet).
 *
 * Contract: shrink may change cache *hit rates* only, never *values* —
 * an evicted entry is simply recomputed — so runs that never reach
 * soft pressure are bit-identical to budget-disabled runs, and soft
 * pressure alone never changes a search's best mapping or trace.
 *
 * The default-constructed budget is disabled: poll() is one relaxed
 * atomic load and nothing else changes behavior. Enable with
 * configure() (examples: --mem-soft-mb / --mem-hard-mb) or the
 * TILEFLOW_MEM_SOFT_MB / TILEFLOW_MEM_HARD_MB environment variables.
 *
 * Also here: installNewHandler() (a std::new_handler that reclaims
 * hard and retries the allocation once before letting bad_alloc
 * propagate) and AllocFaultInjector, the TILEFLOW_ALLOC_FAULT seeded
 * bad_alloc injector in the TILEFLOW_FAULT_INJECT mold.
 */

#ifndef TILEFLOW_COMMON_MEMBUDGET_HPP
#define TILEFLOW_COMMON_MEMBUDGET_HPP

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace tileflow {

/** Pressure levels, ordered by severity. */
enum class MemPressure
{
    Ok = 0,   ///< below every configured limit
    Soft = 1, ///< rss ≥ soft limit: halve cache caps and evict
    Hard = 2, ///< rss ≥ hard limit: flush caches, shed evaluations
};

/** "ok" / "soft" / "hard". */
const char* memPressureName(MemPressure level);

class MemoryBudget
{
  public:
    /**
     * Shrink callback: reduce the component's footprint for the given
     * severity and return the approximate bytes freed. Must be
     * deadlock-free from arbitrary threads (use try_lock and skip
     * contended shards — the contending thread shrinks next time) and
     * must never change computed *values*, only future hit rates.
     */
    using ShrinkFn = std::function<uint64_t(MemPressure)>;

    /** The process-wide budget (constructed disabled; reads the
     *  TILEFLOW_MEM_SOFT_MB / TILEFLOW_MEM_HARD_MB env overrides). */
    static MemoryBudget& global();

    MemoryBudget(const MemoryBudget&) = delete;
    MemoryBudget& operator=(const MemoryBudget&) = delete;

    /**
     * Set the soft / hard RSS limits in bytes; 0 disables a level.
     * Setting both to 0 disables the budget entirely (poll() returns
     * Ok after one relaxed load). A nonzero hard below soft is lifted
     * to soft.
     */
    void configure(uint64_t softBytes, uint64_t hardBytes);

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    uint64_t softLimitBytes() const;
    uint64_t hardLimitBytes() const;

    /** Resident set size from /proc/self/statm (0 if unreadable). */
    static uint64_t processRssBytes();

    /**
     * The hot-path hook (guardedEvaluate calls it once per real
     * evaluation). Disabled: one relaxed load. Enabled: RSS is
     * sampled every `pollInterval`th call; between samples the cached
     * level is returned. Returns the current pressure level.
     */
    MemPressure poll();

    /** The level as of the last sample (Ok when disabled). */
    MemPressure level() const;

    /** Sample RSS now and run the state machine (poll() does this
     *  every Nth call; exposed for tests and end-of-run reporting). */
    MemPressure sample();

    /** Sample RSS every `every`th poll() (default 32; min 1). */
    void setPollInterval(uint32_t every);

    /**
     * Register a reclaimable component's shrink callback. The
     * returned id unregisters it; the callback may be invoked from any
     * thread until unregisterComponent returns (callbacks run under
     * the budget mutex, so unregistration synchronizes with in-flight
     * calls).
     */
    int registerComponent(ShrinkFn shrink);
    void unregisterComponent(int id);

    /** Registered components (tests). */
    size_t componentCount() const;

    /** Run every component's shrink at `severity`; returns the
     *  approximate bytes freed. */
    uint64_t reclaim(MemPressure severity);

    /**
     * Install a std::new_handler that, on allocation failure, runs
     * reclaim(Hard) and retries the allocation; when nothing was
     * freed the original bad_alloc propagates. Idempotent.
     */
    static void installNewHandler();

    /** Tests: drop limits, components, state and poll counters. */
    void resetForTesting();

  private:
    MemoryBudget();

    MemPressure sampleLocked(uint64_t rss);
    uint64_t reclaimLocked(MemPressure severity);
    static void newHandlerTrampoline();

    mutable std::recursive_mutex mutex_;
    std::map<int, ShrinkFn> components_;
    int nextId_ = 0;

    std::atomic<bool> enabled_{false};
    std::atomic<uint64_t> softBytes_{0};
    std::atomic<uint64_t> hardBytes_{0};
    std::atomic<uint32_t> pollEvery_{32};
    std::atomic<uint32_t> pollCount_{0};
    std::atomic<int> level_{0};
};

/**
 * RAII registration of a reclaimable component — unregisters on
 * destruction, so stack- or member-scoped components (the per-search
 * caches) can never leave dangling callbacks behind.
 */
class MemReclaimRegistration
{
  public:
    MemReclaimRegistration() = default;

    explicit MemReclaimRegistration(MemoryBudget::ShrinkFn shrink)
        : id_(MemoryBudget::global().registerComponent(std::move(shrink)))
    {
    }

    ~MemReclaimRegistration() { release(); }

    MemReclaimRegistration(const MemReclaimRegistration&) = delete;
    MemReclaimRegistration& operator=(const MemReclaimRegistration&) =
        delete;

    void
    release()
    {
        if (id_ >= 0)
            MemoryBudget::global().unregisterComponent(id_);
        id_ = -1;
    }

  private:
    int id_ = -1;
};

/**
 * Seeded allocation-fault injector: a deterministic fraction of
 * hook sites throw std::bad_alloc, keyed on content (the structural
 * tree hash under evaluation, the input-text hash in the parsers) so
 * the same candidate faults the same way on every thread, retry and
 * resumed run — the TILEFLOW_FAULT_INJECT contract, for bad_alloc.
 *
 *     TILEFLOW_ALLOC_FAULT="rate=0.05,seed=11"
 */
class AllocFaultInjector
{
  public:
    /** Rate is clamped to [0,1]. */
    AllocFaultInjector(double rate, uint64_t seed);

    /** Parse TILEFLOW_ALLOC_FAULT; null when unset or rate <= 0. */
    static std::shared_ptr<const AllocFaultInjector> fromEnv();

    /** The process-wide injector parsed once at first use (null when
     *  disabled) — the parsers' hook; Evaluator holds its own copy. */
    static const AllocFaultInjector* env();

    /** True when this key's draw lands under the rate. */
    bool decideKey(uint64_t key) const;

    /** FNV-1a over raw text — the parser/loader hook key. */
    static uint64_t textKey(const std::string& text);

    double rate() const { return rate_; }
    uint64_t seed() const { return seed_; }

  private:
    double rate_;
    uint64_t seed_;
};

} // namespace tileflow

#endif // TILEFLOW_COMMON_MEMBUDGET_HPP
