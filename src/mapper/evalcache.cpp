#include "mapper/evalcache.hpp"

#include "common/hash.hpp"

namespace tileflow {

template class ShardedFifoCache<std::vector<int64_t>, CachedEval,
                                EvalCacheTraits>;

uint64_t
EvalCacheTraits::hash(const std::vector<int64_t>& choices)
{
    uint64_t hash = kHashSeed;
    for (int64_t choice : choices)
        hash = hashWord(hash, uint64_t(choice));
    return hash;
}

size_t
EvalCacheTraits::entryBytes(const std::vector<int64_t>& choices,
                            const CachedEval& value)
{
    // Sizes, not capacities: the stored key allocates exactly size()
    // elements.
    return sizeof(std::vector<int64_t>) + sizeof(uint64_t) +
           choices.size() * sizeof(int64_t) + sizeof(CachedEval) +
           value.failReason.size() + kCacheEntryOverheadBytes;
}

void
EvalCache::insert(const std::vector<int64_t>& choices, CachedEval value)
{
    if (ShardedFifoCache::insert(choices, std::move(value)) &&
        tracingEnabled()) {
        // Chrome counter tracks: hit/miss totals over the run's
        // timeline, sampled at each insert (one per real evaluation).
        traceCounter("evalcache.hits", double(metricHits_.value()));
        traceCounter("evalcache.misses", double(metricMisses_.value()));
    }
}

} // namespace tileflow
