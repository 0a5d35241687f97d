#include "mapper/evalcache.hpp"

namespace tileflow {

template class ShardedFifoCache<std::vector<int64_t>, CachedEval,
                                EvalCacheTraits>;

uint64_t
EvalCacheTraits::hash(const std::vector<int64_t>& choices)
{
    // FNV-1a, 64-bit.
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (int64_t choice : choices) {
        uint64_t bits = uint64_t(choice);
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= bits & 0xffULL;
            hash *= 0x100000001b3ULL;
            bits >>= 8;
        }
    }
    return hash;
}

size_t
EvalCacheTraits::entryBytes(const std::vector<int64_t>& choices,
                            const CachedEval& value)
{
    // Sizes, not capacities: the stored copies allocate exactly
    // size() elements.
    return 2 * (sizeof(std::vector<int64_t>) +
                choices.size() * sizeof(int64_t)) +
           sizeof(CachedEval) + value.failReason.size() +
           kCacheEntryOverheadBytes;
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
