#include "analysis/subtreecache.hpp"

#include <utility>

namespace tileflow {

template class ShardedFifoCache<SubtreeKey, SubtreePartial,
                                SubtreeCacheTraits>;

namespace {

/** Heap bytes of a per-child list past its inline slots; sizes, not
 *  capacities, so insert credits == eviction debits. */
template <typename T, size_t N>
size_t
spilledBytes(const SmallVector<T, N>& list)
{
    return list.size() > N ? list.size() * sizeof(T) : 0;
}

} // namespace

size_t
SubtreeCacheTraits::entryBytes(const SubtreeKey& key,
                               const SubtreePartial& value)
{
    (void)key;
    return sizeof(SubtreeKey) + sizeof(uint64_t) + sizeof(SubtreePartial) +
           spilledBytes(value.dm.childFill) +
           spilledBytes(value.dm.childDrain) +
           spilledBytes(value.dm.childLevels) + kCacheEntryOverheadBytes;
}

SubtreeSlots::SubtreeSlots(SubtreeCache* cache, const AnalysisTree& tree)
    : cache_(cache)
{
    if (cache_ == nullptr || !tree.hasRoot())
        return;
    const std::vector<TileKey> keys = tileKeys(tree.root());
    slots_.resize(keys.size());
    index_.reserve(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
        Slot& slot = slots_[i];
        slot.key = SubtreeKey{keys[i].hash, keys[i].context};
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
