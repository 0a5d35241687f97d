#include "mapper/evalcache.hpp"

#include <algorithm>

namespace tileflow {

namespace {

/** Fixed per-entry overhead: the unordered_map node (hash + next
 *  pointer + bucket share) and the FIFO deque slot, amortized. */
constexpr size_t kEntryOverheadBytes = 64;

/** Soft-pressure floors: caps ratchet down but never below these, so
 *  a long-pressured run keeps a minimally useful cache. */
constexpr size_t kMinEntriesPerShard = 64;
constexpr size_t kMinBytesPerShard = 4096;

/** Halve a cap toward a floor; 0 (unbounded) halves `current` into a
 *  first real cap instead. */
size_t
halveCap(size_t cap, size_t current, size_t floor)
{
    const size_t base = cap > 0 ? cap : current;
    return std::max(floor, base / 2);
}

} // namespace

EvalCache::EvalCache(size_t shards, size_t maxEntriesPerShard)
    : shards_(shards == 0 ? 1 : shards),
      maxEntriesPerShard_(maxEntriesPerShard),
      budgetReg_("evalcache", [this] { return bytes(); },
                 [this](MemPressure level) { return shrink(level); })
{
}

EvalCache::~EvalCache()
{
    // Stop pressure callbacks first, then settle the byte accounting:
    // the global gauge tracks live entries, so a destroyed cache's
    // bytes count as evicted (keeping gauge == inserted − evicted).
    budgetReg_.release();
    uint64_t freed = 0;
    for (Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        freed += shard.bytes;
        shard.bytes = 0;
    }
    if (freed > 0) {
        metricBytesEvicted_.add(freed);
        metricBytes_.add(-double(freed));
    }
}

uint64_t
EvalCache::hashChoices(const std::vector<int64_t>& choices)
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
EvalCache::entryBytes(const std::vector<int64_t>& choices,
                      const CachedEval& value)
{
    // Sizes, not capacities: the stored copies allocate exactly
    // size() elements, and a size-pure estimate guarantees the bytes
    // debited at eviction equal the bytes credited at insert.
    return 2 * (sizeof(std::vector<int64_t>) +
                choices.size() * sizeof(int64_t)) +
           sizeof(CachedEval) + value.failReason.size() +
           kEntryOverheadBytes;
}

std::optional<CachedEval>
EvalCache::lookup(const std::vector<int64_t>& choices)
{
    Shard& shard = shardFor(hashChoices(choices));
    std::optional<CachedEval> bound_only;
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        const auto it = shard.map.find(choices);
        if (it != shard.map.end()) {
            if (!it->second.boundOnly) {
                hits_.fetch_add(1, std::memory_order_relaxed);
                metricHits_.add();
                return it->second;
            }
            bound_only = it->second;
        }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    metricMisses_.add();
    return bound_only;
}

size_t
EvalCache::evictOneLocked(Shard& shard)
{
    // FIFO age-out: an evicted mapping is re-evaluated on its next
    // lookup, so eviction affects hit rates only — checkpoint/resume
    // stays bit-identical.
    const std::vector<int64_t>& victim = shard.order.front();
    size_t freed = 0;
    const auto it = shard.map.find(victim);
    if (it != shard.map.end()) {
        freed = entryBytes(it->first, it->second);
        shard.bytes -= std::min(shard.bytes, freed);
        shard.map.erase(it);
    }
    shard.order.pop_front();
    return freed;
}

void
EvalCache::creditEvictions(uint64_t entries, uint64_t bytes)
{
    if (entries > 0) {
        evictions_.fetch_add(entries, std::memory_order_relaxed);
        metricEvictions_.add(entries);
    }
    if (bytes > 0) {
        metricBytesEvicted_.add(bytes);
        metricBytes_.add(-double(bytes));
    }
}

void
EvalCache::insert(const std::vector<int64_t>& choices, CachedEval value)
{
    const size_t newBytes = entryBytes(choices, value);
    uint64_t evicted = 0;
    uint64_t evictedBytes = 0;
    Shard& shard = shardFor(hashChoices(choices));
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        const auto it = shard.map.find(choices);
        if (it != shard.map.end()) {
            // A bound says less than a full verdict: keep the verdict
            // (a tuner that looked up before it landed may still send
            // the bound).
            if (value.boundOnly && !it->second.boundOnly)
                return;
            // Overwrite: the old entry's bytes count as evicted, the
            // new entry's as inserted, keeping both counters exact.
            const size_t oldBytes = entryBytes(it->first, it->second);
            evictedBytes += oldBytes;
            shard.bytes -= std::min(shard.bytes, oldBytes);
            it->second = std::move(value);
        } else {
            shard.map.emplace(choices, std::move(value));
            shard.order.push_back(choices);
        }
        shard.bytes += newBytes;
        const size_t entryCap =
            maxEntriesPerShard_.load(std::memory_order_relaxed);
        const size_t byteCap =
            maxBytesPerShard_.load(std::memory_order_relaxed);
        while (((entryCap > 0 && shard.map.size() > entryCap) ||
                (byteCap > 0 && shard.bytes > byteCap)) &&
               !shard.order.empty()) {
            evictedBytes += evictOneLocked(shard);
            ++evicted;
        }
    }
    metricInserts_.add();
    metricBytesInserted_.add(newBytes);
    metricBytes_.add(double(newBytes));
    creditEvictions(evicted, evictedBytes);
    if (tracingEnabled()) {
        // Chrome counter tracks: hit/miss totals over the run's
        // timeline, sampled at each insert (one per real evaluation).
        traceCounter("evalcache.hits", double(metricHits_.value()));
        traceCounter("evalcache.misses", double(metricMisses_.value()));
    }
}

size_t
EvalCache::size() const
{
    size_t total = 0;
    for (const Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        total += shard.map.size();
    }
    return total;
}

uint64_t
EvalCache::bytes() const
{
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        total += shard.bytes;
    }
    return total;
}

uint64_t
EvalCache::shrink(MemPressure level)
{
    if (level == MemPressure::Hard)
        return evictAll();
    if (level != MemPressure::Soft)
        return 0;

    // Establish/halve the caps from the current largest shard, then
    // evict each shard down. try_lock: a shard a worker is touching
    // is skipped rather than risking lock-order deadlock with an
    // allocation-failure reclaim fired inside that worker's insert.
    size_t largest = 0;
    size_t largestEntries = 0;
    for (Shard& shard : shards_) {
        std::unique_lock<std::mutex> lock(shard.mutex, std::try_to_lock);
        if (!lock.owns_lock())
            continue;
        largest = std::max(largest, shard.bytes);
        largestEntries = std::max(largestEntries, shard.map.size());
    }
    const size_t byteCap =
        halveCap(maxBytesPerShard_.load(std::memory_order_relaxed),
                 largest, kMinBytesPerShard);
    maxBytesPerShard_.store(byteCap, std::memory_order_relaxed);
    const size_t entryCap =
        maxEntriesPerShard_.load(std::memory_order_relaxed);
    if (entryCap > 0)
        maxEntriesPerShard_.store(
            std::max(kMinEntriesPerShard, entryCap / 2),
            std::memory_order_relaxed);

    uint64_t freed = 0;
    uint64_t entries = 0;
    for (Shard& shard : shards_) {
        std::unique_lock<std::mutex> lock(shard.mutex, std::try_to_lock);
        if (!lock.owns_lock())
            continue;
        while (shard.bytes > byteCap && !shard.order.empty()) {
            freed += evictOneLocked(shard);
            ++entries;
        }
    }
    creditEvictions(entries, freed);
    return freed;
}

uint64_t
EvalCache::evictAll()
{
    uint64_t freed = 0;
    uint64_t entries = 0;
    for (Shard& shard : shards_) {
        std::unique_lock<std::mutex> lock(shard.mutex, std::try_to_lock);
        if (!lock.owns_lock())
            continue;
        freed += shard.bytes;
        entries += shard.map.size();
        shard.map.clear();
        shard.order.clear();
        shard.bytes = 0;
    }
    creditEvictions(entries, freed);
    return freed;
}

void
EvalCache::forEach(const std::function<void(const std::vector<int64_t>&,
                                            const CachedEval&)>& fn) const
{
    for (const Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        for (const auto& [choices, value] : shard.map)
            fn(choices, value);
    }
}

void
EvalCache::clear()
{
    uint64_t evicted = 0;
    uint64_t freed = 0;
    for (Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        evicted += shard.map.size();
        freed += shard.bytes;
        shard.map.clear();
        shard.order.clear();
        shard.bytes = 0;
    }
    // Counters reset with the entries: a hit rate computed after a
    // clear must count only post-clear lookups, not stale totals
    // (the bug this replaces reported rates against pre-clear
    // denominators across tuner restarts).
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    evictions_.store(0, std::memory_order_relaxed);
    metricEvictions_.add(evicted);
    if (freed > 0) {
        metricBytesEvicted_.add(freed);
        metricBytes_.add(-double(freed));
    }
}

} // namespace tileflow
