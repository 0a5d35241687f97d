/**
 * @file
 * Sharded memoization cache for mapping evaluations.
 *
 * The GA resamples structural genes and the MCTS revisits tiling
 * prefixes, so the same complete choice vector is evaluated many times
 * per search (Sec. 7.2's budget counts every one). The cache keys on
 * the full choice vector — hashed with FNV-1a over its int64 entries,
 * compared element-wise on collision — and stores just the verdict the
 * search loop needs (valid + cycles), so a repeated sample skips the
 * tree build and the entire analysis. A candidate the lower bound
 * pruned leaves a bound-only entry, so a repeat of it skips the build
 * and the bound whenever its threshold still prunes.
 *
 * Sharding: the hash picks one of `shards` independently-locked maps,
 * so concurrent workers evaluating different mappings rarely contend.
 * Hit/miss counters are atomics surfaced in MapperResult.
 */

#ifndef TILEFLOW_MAPPER_EVALCACHE_HPP
#define TILEFLOW_MAPPER_EVALCACHE_HPP

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/lowerbound.hpp"
#include "common/membudget.hpp"
#include "common/telemetry.hpp"

namespace tileflow {

/**
 * The memoized verdict for one choice vector.
 *
 * Three states, not two: an ordinarily *invalid* mapping (resource
 * violation — `valid == false, failed == false`), a *valid* one, and
 * an evaluation that *failed* outright (the evaluator threw, or
 * returned a non-finite result). Failed evaluations are memoized as
 * tagged infeasible entries — never as ordinary results — so retries
 * of a crashing candidate are cache hits that carry the original
 * failure reason, and hit/miss counters stay honest.
 */
struct CachedEval
{
    bool valid = false;
    double cycles = 0.0;

    /** Evaluation threw or produced a non-finite result. */
    bool failed = false;

    /** Why it failed (empty unless `failed`). */
    std::string failReason;

    /**
     * Screened out by the branch-and-bound lower bound before full
     * evaluation (mapper/guard.hpp). Transient guard verdict only: a
     * cost-prune depends on the caller's best-so-far threshold, which
     * is not part of the cache key, so the cache stores what the
     * verdict was derived from (a bound-only entry, below) instead.
     */
    bool pruned = false;

    /**
     * Bound-only entry: no full verdict, just the candidate's lower
     * bound, which — unlike the prune verdict — is a pure function of
     * the choice vector. A lookup that finds one counts as a miss;
     * the caller re-judges it against its own threshold exactly as a
     * fresh bound (guardedEvaluate with BoundPrune::memo). A full
     * verdict always replaces a bound-only entry; a bound-only insert
     * never replaces a full verdict. Never serialized.
     */
    bool boundOnly = false;

    /** The capacity screen rejected the tree (a threshold-free prune).
     *  False means it was not run: a clean screen always leads on to
     *  a full evaluation, whose verdict replaces the entry. */
    bool capacityReject = false;

    /** The bound screen tier behind `boundCycles` / `capacityReject`
     *  (LowerBoundEvaluator::screen): a bound-only entry replays it
     *  and resumes the screen below it. */
    BoundTier boundTier = BoundTier::None;

    /** The cycle bound of the deepest cost tier that ran (meaningless
     *  when `capacityReject` was decided without one). */
    double boundCycles = 0.0;
};

class EvalCache
{
  public:
    /**
     * @param shards              independently-locked map shards
     * @param maxEntriesPerShard  FIFO-evict beyond this many entries
     *        per shard; 0 (the default) keeps the cache unbounded.
     *        Eviction changes hit rates only, never values — an
     *        evicted mapping is simply re-evaluated on its next
     *        lookup — so checkpoint/resume runs stay bit-identical
     *        under any cap. Soft memory pressure halves it (to a
     *        floor) and also sets a per-shard byte cap — see shrink().
     */
    explicit EvalCache(size_t shards = 16,
                       size_t maxEntriesPerShard = 0);

    ~EvalCache();

    EvalCache(const EvalCache&) = delete;
    EvalCache& operator=(const EvalCache&) = delete;

    /** FNV-1a over the bytes of the choice vector's int64 entries. */
    static uint64_t hashChoices(const std::vector<int64_t>& choices);

    /**
     * Find a memoized result; counts a hit or a miss. A bound-only
     * entry is returned too but counts as a miss: it is not a verdict.
     */
    std::optional<CachedEval> lookup(const std::vector<int64_t>& choices);

    /**
     * Memoize a result (last writer wins on a benign race), except
     * that a bound-only value never replaces a full verdict.
     */
    void insert(const std::vector<int64_t>& choices, CachedEval value);

    /**
     * Per-instance counters since construction or the last clear().
     * Searches that need totals scoped to one run must snapshot these
     * around the run and report the delta (the engines do; see
     * genetic.cpp / mcts.cpp) — never compare raw totals across a
     * clear(). The process-cumulative view lives in the global
     * MetricsRegistry ("evalcache.*"), which clear() does NOT reset.
     */
    uint64_t hits() const { return hits_.load(); }
    uint64_t misses() const { return misses_.load(); }

    /** Entries FIFO-evicted by the per-shard cap (clear() resets it
     *  along with hits/misses; the registry counter does not reset). */
    uint64_t evictions() const { return evictions_.load(); }

    /** Number of distinct mappings memoized. */
    size_t size() const;

    /** Approximate bytes held (exact vs. this cache's own insert /
     *  eviction accounting; see entryBytes()). */
    uint64_t bytes() const;

    /**
     * The per-entry byte estimate the accounting uses: a pure
     * function of entry *sizes* (never capacities), so the bytes
     * credited at insert equal the bytes debited at eviction and the
     * `evalcache.bytes` gauge stays exactly
     * bytes_inserted − bytes_evicted (telemetry_check asserts it).
     * Counts the key twice — the map entry and the FIFO deque copy.
     */
    static size_t entryBytes(const std::vector<int64_t>& choices,
                             const CachedEval& value);

    /**
     * Memory-pressure hook (registered with MemoryBudget at
     * construction). Soft: halve the entry/byte caps — installing a
     * byte cap at half the current largest shard when unbounded —
     * and evict down to them. Hard: drop every entry. Unlike
     * clear(), instance hit/miss counters are preserved, so engines
     * snapshotting deltas around a run stay consistent when pressure
     * fires mid-run. Uses try_lock per shard (a contended shard is
     * skipped and shrunk at the next pressure event). Returns the
     * approximate bytes freed.
     */
    uint64_t shrink(MemPressure level);

    /** shrink(Hard): drop every entry, keep hit/miss counters. */
    uint64_t evictAll();

    /**
     * Visit every memoized entry (checkpoint serialization). Not
     * synchronized against concurrent insert(): call only while no
     * workers are running (e.g. at a generation boundary). Iteration
     * order is unspecified.
     */
    void forEach(const std::function<void(const std::vector<int64_t>&,
                                          const CachedEval&)>& fn) const;

    /**
     * Drop every entry AND zero the instance hit/miss counters, so
     * hit rates computed after a clear (tuner restart, rejected
     * checkpoint) never mix fresh lookups with stale totals. Cleared
     * entries count as evictions in the metrics registry.
     */
    void clear();

  private:
    struct ChoiceHash
    {
        size_t
        operator()(const std::vector<int64_t>& key) const
        {
            return size_t(hashChoices(key));
        }
    };

    struct Shard
    {
        mutable std::mutex mutex;
        std::unordered_map<std::vector<int64_t>, CachedEval, ChoiceHash>
            map;
        std::deque<std::vector<int64_t>> order; ///< FIFO for the cap
        size_t bytes = 0; ///< sum of entryBytes() over map (under mutex)
    };

    Shard& shardFor(uint64_t hash) { return shards_[hash % shards_.size()]; }

    /** Pop the FIFO-oldest entry; returns its bytes (caller holds the
     *  shard mutex and credits the metrics). */
    size_t evictOneLocked(Shard& shard);

    /** Credit an eviction batch to instance + registry accounting. */
    void creditEvictions(uint64_t entries, uint64_t bytes);

    std::vector<Shard> shards_;
    std::atomic<size_t> maxEntriesPerShard_;
    /** Approximate entry bytes per shard; 0 (unbounded) until soft
     *  memory pressure sets it. */
    std::atomic<size_t> maxBytesPerShard_{0};
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
    std::atomic<uint64_t> evictions_{0};

    // Process-cumulative mirrors (survive clear(); see DESIGN.md §10).
    Counter& metricHits_ =
        MetricsRegistry::global().counter("evalcache.hits");
    Counter& metricMisses_ =
        MetricsRegistry::global().counter("evalcache.misses");
    Counter& metricInserts_ =
        MetricsRegistry::global().counter("evalcache.inserts");
    Counter& metricEvictions_ =
        MetricsRegistry::global().counter("evalcache.evictions");
    Counter& metricBytesInserted_ =
        MetricsRegistry::global().counter("evalcache.bytes_inserted");
    Counter& metricBytesEvicted_ =
        MetricsRegistry::global().counter("evalcache.bytes_evicted");
    Gauge& metricBytes_ =
        MetricsRegistry::global().gauge("evalcache.bytes");

    // Registered last so it is destroyed first: no shrink callback
    // can arrive once the destructor body runs.
    MemReclaimRegistration budgetReg_;
};

} // namespace tileflow

#endif // TILEFLOW_MAPPER_EVALCACHE_HPP
