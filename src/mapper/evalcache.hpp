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
 * Storage — shards, the FIFO entry cap, byte accounting — is the
 * shared ShardedFifoCache (common/shardedcache.hpp).
 * Hit/miss counters are surfaced in MapperResult.
 */

#ifndef TILEFLOW_MAPPER_EVALCACHE_HPP
#define TILEFLOW_MAPPER_EVALCACHE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/shardedcache.hpp"

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
     *  False on a prune or a bound-only entry means the roofline
     *  decided it and the capacity screen has not run, so a replay
     *  that the roofline no longer prunes resumes at that screen (a
     *  clean screen always leads on to a full evaluation, whose
     *  verdict replaces the entry). */
    bool capacityReject = false;

    /** The roofline bound on the full model's cycles (meaningless
     *  when `capacityReject` was decided without one). */
    double boundCycles = 0.0;
};

/** What EvalCache adds to the shared cache core: the choice-vector
 *  hash, the entry size and the two bound-only policies. */
struct EvalCacheTraits
{
    static constexpr const char* kMetricPrefix = "evalcache.";

    /** FNV-1a over the bytes of the choice vector's int64 entries. */
    static uint64_t hash(const std::vector<int64_t>& choices);

    /**
     * Size-pure entry estimate (see ShardedFifoCache): the key counted
     * twice — the map entry and the FIFO deque copy — plus the verdict
     * and its failure reason.
     */
    static size_t entryBytes(const std::vector<int64_t>& choices,
                             const CachedEval& value);

    /** A bound-only entry is returned but counts as a miss: it is not
     *  a verdict. */
    static bool
    countsAsHit(const CachedEval& value)
    {
        return !value.boundOnly;
    }

    /** A bound says less than a full verdict: keep the verdict (a
     *  tuner that looked up before it landed may still send the
     *  bound). */
    static bool
    keepsOld(const CachedEval& old, const CachedEval& incoming)
    {
        return incoming.boundOnly && !old.boundOnly;
    }
};

extern template class ShardedFifoCache<std::vector<int64_t>, CachedEval,
                                       EvalCacheTraits>;

class EvalCache
    : public ShardedFifoCache<std::vector<int64_t>, CachedEval,
                              EvalCacheTraits>
{
  public:
    /**
     * @param shards              independently-locked map shards
     * @param maxEntriesPerShard  FIFO-evict beyond this many entries
     *        per shard; 0 (the default) keeps the cache unbounded.
     */
    explicit EvalCache(size_t shards = 16, size_t maxEntriesPerShard = 0)
        : ShardedFifoCache(shards, maxEntriesPerShard)
    {
    }

    static uint64_t
    hashChoices(const std::vector<int64_t>& choices)
    {
        return EvalCacheTraits::hash(choices);
    }

    /** Memoize a result, and sample the `evalcache.*` hit/miss trace
     *  counter tracks when tracing is on. */
    void insert(const std::vector<int64_t>& choices, CachedEval value);
};

} // namespace tileflow

#endif // TILEFLOW_MAPPER_EVALCACHE_HPP
