#include "analysis/subtreecache.hpp"

#include <algorithm>
#include <utility>

namespace tileflow {

namespace {

/** unordered_map node + bucket share + FIFO deque slot, amortized. */
constexpr size_t kEntryOverheadBytes = 64;

/** Soft-pressure cap floors (see EvalCache). */
constexpr size_t kMinEntriesPerShard = 64;
constexpr size_t kMinBytesPerShard = 4096;

size_t
halveCap(size_t cap, size_t current, size_t floor)
{
    const size_t base = cap > 0 ? cap : current;
    return std::max(floor, base / 2);
}

} // namespace

SubtreeCache::SubtreeCache(size_t shards, size_t maxEntriesPerShard)
    : shards_(shards == 0 ? 1 : shards),
      maxEntriesPerShard_(maxEntriesPerShard),
      budgetReg_("subtreecache", [this] { return bytes(); },
                 [this](MemPressure level) { return shrink(level); })
{
}

SubtreeCache::~SubtreeCache()
{
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

size_t
SubtreeCache::entryBytes(const SubtreeKey& key,
                         const SubtreePartial& value)
{
    (void)key;
    // Sizes, not capacities, so insert credits == eviction debits.
    return 2 * sizeof(SubtreeKey) + sizeof(SubtreePartial) +
           (value.dm.childFill.size() + value.dm.childDrain.size()) *
               sizeof(double) +
           value.dm.childLevels.size() * sizeof(int) +
           kEntryOverheadBytes;
}

std::optional<SubtreePartial>
SubtreeCache::lookup(const SubtreeKey& key)
{
    metricLookups_.add();
    Shard& shard = shardFor(key);
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        const auto it = shard.map.find(key);
        if (it != shard.map.end()) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            metricHits_.add();
            return it->second;
        }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    metricMisses_.add();
    return std::nullopt;
}

size_t
SubtreeCache::evictOneLocked(Shard& shard)
{
    // FIFO: evictions change only hit rates, never values (an
    // evicted subtree is simply recomputed), so a simple age-out is
    // safe and O(1).
    const SubtreeKey victim = shard.order.front();
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
SubtreeCache::creditEvictions(uint64_t entries, uint64_t bytes)
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
SubtreeCache::insert(const SubtreeKey& key, const SubtreePartial& value)
{
    const size_t newBytes = entryBytes(key, value);
    uint64_t evicted = 0;
    uint64_t evictedBytes = 0;
    Shard& shard = shardFor(key);
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        const auto it = shard.map.find(key);
        if (it != shard.map.end()) {
            const size_t oldBytes = entryBytes(it->first, it->second);
            evictedBytes += oldBytes;
            shard.bytes -= std::min(shard.bytes, oldBytes);
            it->second = value;
        } else {
            shard.map.emplace(key, value);
            shard.order.push_back(key);
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
}

size_t
SubtreeCache::size() const
{
    size_t total = 0;
    for (const Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        total += shard.map.size();
    }
    return total;
}

uint64_t
SubtreeCache::bytes() const
{
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        total += shard.bytes;
    }
    return total;
}

uint64_t
SubtreeCache::shrink(MemPressure level)
{
    if (level == MemPressure::Hard)
        return evictAll();
    if (level != MemPressure::Soft)
        return 0;

    size_t largest = 0;
    for (Shard& shard : shards_) {
        std::unique_lock<std::mutex> lock(shard.mutex, std::try_to_lock);
        if (!lock.owns_lock())
            continue;
        largest = std::max(largest, shard.bytes);
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
SubtreeCache::evictAll()
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
SubtreeCache::clear()
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
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    metricEvictions_.add(evicted);
    if (freed > 0) {
        metricBytesEvicted_.add(freed);
        metricBytes_.add(-double(freed));
    }
}

SubtreeSlots::SubtreeSlots(SubtreeCache* cache, const AnalysisTree& tree,
                           SubtreeKind kind)
    : cache_(cache)
{
    if (cache_ == nullptr || !tree.hasRoot())
        return;
    const std::vector<TileKey> keys = tileKeys(tree.root());
    slots_.resize(keys.size());
    index_.reserve(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
        Slot& slot = slots_[i];
        slot.key = SubtreeKey{keys[i].hash, keys[i].context, kind};
        slot.cached = cache_->lookup(slot.key);
        index_.emplace(keys[i].node, i);
    }
}

const DmNodePartial*
SubtreeSlots::dmLookup(const Node* node)
{
    const Slot* slot = slotOf(node);
    return slot && slot->cached ? &slot->cached->dm : nullptr;
}

void
SubtreeSlots::dmRecord(const Node* node, const DmNodePartial& partial)
{
    if (Slot* slot = slotOf(node)) {
        slot->fresh.dm = partial;
        slot->freshDm = true;
    }
}

const int64_t*
SubtreeSlots::footprintLookup(const Node* node)
{
    const Slot* slot = slotOf(node);
    return slot && slot->cached ? &slot->cached->footprintBytes : nullptr;
}

void
SubtreeSlots::footprintRecord(const Node* node, int64_t footprint)
{
    if (Slot* slot = slotOf(node)) {
        slot->fresh.footprintBytes = footprint;
        slot->freshFp = true;
    }
}

const double*
SubtreeSlots::latencyLookup(const Node* node, bool with_memory)
{
    const Slot* slot = slotOf(node);
    if (slot == nullptr || !slot->cached || !slot->cached->hasLatency)
        return nullptr;
    return with_memory ? &slot->cached->cycles
                       : &slot->cached->computeCycles;
}

void
SubtreeSlots::latencyRecord(const Node* node, bool with_memory,
                            double cycles)
{
    Slot* slot = slotOf(node);
    if (slot == nullptr)
        return;
    if (with_memory) {
        slot->fresh.cycles = cycles;
        slot->freshLat = true;
    } else {
        slot->fresh.computeCycles = cycles;
        slot->freshPure = true;
    }
}

void
SubtreeSlots::flush()
{
    for (Slot& slot : slots_) {
        if (!slot.freshDm && !slot.freshFp && !slot.freshLat &&
            !slot.freshPure)
            continue; // fully served from cache; nothing new
        // Every pass that runs the dm analyzer visits every Tile node,
        // so a slot without fresh dm was a hit. The bound's pass
        // computes no footprint; its entries keep footprintBytes 0.
        SubtreePartial merged;
        merged.dm = slot.freshDm ? std::move(slot.fresh.dm)
                                 : slot.cached->dm;
        if (slot.freshFp)
            merged.footprintBytes = slot.fresh.footprintBytes;
        else if (slot.cached)
            merged.footprintBytes = slot.cached->footprintBytes;
        if (slot.freshLat && slot.freshPure) {
            merged.hasLatency = true;
            merged.cycles = slot.fresh.cycles;
            merged.computeCycles = slot.fresh.computeCycles;
        } else if (!slot.freshLat && !slot.freshPure && slot.cached &&
                   slot.cached->hasLatency) {
            merged.hasLatency = true;
            merged.cycles = slot.cached->cycles;
            merged.computeCycles = slot.cached->computeCycles;
        }
        // A lone freshLat (memory pass recomputed under a pure-pass
        // ancestor hit, e.g. after this node's entry was evicted)
        // stays hasLatency = false: its pure-pass twin was never
        // computed and storing a zero would poison later hits.
        cache_->insert(slot.key, merged);
    }
}

} // namespace tileflow
