/**
 * @file
 * Sharded per-subtree analysis cache for memoized evaluation, and
 * SubtreeSlots, the analyzers' one hook into it.
 *
 * The mapper's mutate / expand moves change one knob of a mapping at a
 * time, leaving most of the tree structurally identical to its parent.
 * This cache memoizes the expensive per-Tile-node analysis partials —
 * data-movement simulation, step-footprint geometry, and per-execution
 * latency — keyed on (subtreeHash, contextSignature), so re-evaluating
 * a mutated tree recomputes only the changed node's ancestor spine
 * while untouched sibling subtrees are served from cache.
 *
 * Key contract (see core/tree.hpp): two Tile nodes with equal
 * subtreeHash and equal contextSignature produce bit-identical
 * partials, because every analyzer quantity of a node depends only on
 * the node's subtree plus its ancestors' Tile loops. The cached values
 * are the exact doubles/int64s a fresh analysis would compute, and the
 * accumulation into whole-tree results runs through the same code
 * either way, so evaluation with a cache is bit-identical to
 * evaluation without one (the tier-1 property test asserts this per
 * fuzz family).
 *
 * Storage — shards, the FIFO entry cap, byte accounting — is the
 * shared ShardedFifoCache (common/shardedcache.hpp).
 *
 * Counters (MetricsRegistry): analysis.subtree_lookups / _hits /
 * _misses / _inserts / _evictions. Each Tile node of an evaluated tree
 * performs exactly one lookup (SubtreeSlots), so hits + misses ==
 * lookups always holds.
 */

#ifndef TILEFLOW_ANALYSIS_SUBTREECACHE_HPP
#define TILEFLOW_ANALYSIS_SUBTREECACHE_HPP

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "analysis/datamovement.hpp"
#include "common/shardedcache.hpp"
#include "core/tree.hpp"

namespace tileflow {

/** Cache key: structural identity + ancestor-loop context. */
struct SubtreeKey
{
    uint64_t hash = 0;    ///< subtreeHash(node)
    uint64_t context = 0; ///< contextSignature(node)

    bool operator==(const SubtreeKey& other) const
    {
        return hash == other.hash && context == other.context;
    }
};

/**
 * Memoized analysis partials of one Tile node.
 *
 * Latency fields may be absent (`hasLatency == false`) when the
 * recording evaluation bailed out before the latency phase (resource
 * enforcement failure), or when only one of the two latency passes was
 * freshly computed — a later evaluation that does reach the phase
 * upgrades the entry in place (last writer wins).
 */
struct SubtreePartial
{
    /** Data-movement totals + per-child fills/drains (exact). */
    DmNodePartial dm;

    /** Step footprint in bytes (exact). */
    int64_t footprintBytes = 0;

    /** Latency fields below are valid. */
    bool hasLatency = false;

    /** Per-execution cycles, memory pass. */
    double cycles = 0.0;

    /** Per-execution cycles, pure-compute pass. */
    double computeCycles = 0.0;
};

/** What SubtreeCache adds to the shared cache core: the key hash and
 *  the entry size. Every stored partial is a hit and every insert
 *  replaces. */
struct SubtreeCacheTraits
{
    static constexpr const char* kMetricPrefix = "analysis.subtree_";

    static uint64_t
    hash(const SubtreeKey& key)
    {
        // hash already mixes the whole subtree; fold in context.
        return key.hash ^ (key.context * 0x9e3779b97f4a7c15ULL);
    }

    /** Size-pure entry estimate (see ShardedFifoCache): the stored key
     *  and its hash once (the FIFO order points at it), plus the
     *  partial and any per-child entries past its inline slots. */
    static size_t entryBytes(const SubtreeKey& key,
                             const SubtreePartial& value);

    static bool countsAsHit(const SubtreePartial&) { return true; }
    static bool keepsOld(const SubtreePartial&, const SubtreePartial&)
    {
        return false;
    }
};

extern template class ShardedFifoCache<SubtreeKey, SubtreePartial,
                                       SubtreeCacheTraits>;

class SubtreeCache
    : public ShardedFifoCache<SubtreeKey, SubtreePartial,
                              SubtreeCacheTraits>
{
  public:
    /**
     * @param shards              independently-locked map shards
     * @param maxEntriesPerShard  FIFO-evict beyond this many entries
     *                            per shard; 0 = unbounded.
     */
    explicit SubtreeCache(size_t shards = 16,
                          size_t maxEntriesPerShard = 4096)
        : ShardedFifoCache(shards, maxEntriesPerShard)
    {
    }

    /** Find a memoized partial; counts a lookup and a hit or miss. */
    std::optional<SubtreePartial>
    lookup(const SubtreeKey& key)
    {
        metricLookups_.add();
        return ShardedFifoCache::lookup(key);
    }

  private:
    Counter& metricLookups_ =
        MetricsRegistry::global().counter("analysis.subtree_lookups");
};

/**
 * One evaluation's view of a SubtreeCache: the only memoization hook
 * the analyzers take.
 *
 * The constructor is the pre-pass: exactly ONE cache lookup per Tile
 * node, under the keys of one tileKeys() walk, so subtree_hits +
 * subtree_misses == subtree_lookups by construction
 * (tools/telemetry_check enforces it). The *Lookup members serve the
 * cached partials to the analyzers (nullptr: compute it) and the
 * *Record members collect the fresh ones; flush() gives the fresh ones
 * back to the cache. With a null cache every lookup returns nullptr,
 * every record does nothing and flush() does nothing: the analyzers
 * then run exactly as with no slots at all.
 *
 * Per-call state: an instance lives on the stack of one analysis and
 * is neither copied nor moved.
 */
class SubtreeSlots
{
  public:
    SubtreeSlots(SubtreeCache* cache, const AnalysisTree& tree);

    SubtreeSlots(const SubtreeSlots&) = delete;
    SubtreeSlots& operator=(const SubtreeSlots&) = delete;

    /** Data-movement partial of a Tile node. */
    const DmNodePartial* dmLookup(const Node* node);
    void dmRecord(const Node* node, const DmNodePartial& partial);

    /** Step footprint of a Tile node. */
    const int64_t* footprintLookup(const Node* node);
    void footprintRecord(const Node* node, int64_t footprint);

    /**
     * Per-execution latency of a Tile node for the memory pass
     * (`with_memory`) or the pure-compute pass. The memory pass still
     * visits every Tile node on a hit, since its nodeCycles /
     * levelAccessCycles accounting must accumulate for the whole tree
     * in the usual post-order; a pure-pass hit short-circuits the
     * subtree (that pass has no accounting).
     */
    const double* latencyLookup(const Node* node, bool with_memory);
    void latencyRecord(const Node* node, bool with_memory,
                       double cycles);

    /**
     * Insert every slot that computed something fresh. Callable
     * before a post-resource early return too, so even an
     * enforcement-failed evaluation contributes its dm/footprint work
     * (its latency fields stay absent until a later pass records
     * them — last writer wins).
     */
    void flush();

  private:
    /**
     * Per-Tile-node working state. `cached` is the pre-pass lookup;
     * the fresh* flags say which partials this pass computed itself
     * and therefore owes back to the cache.
     */
    struct Slot
    {
        SubtreeKey key;
        std::optional<SubtreePartial> cached;
        SubtreePartial fresh;
        bool freshDm = false;
        bool freshFp = false;
        bool freshLat = false;  ///< memory-pass latency
        bool freshPure = false; ///< pure-compute-pass latency
    };

    /** The node's slot; nullptr without a cache. */
    Slot* slotOf(const Node* node)
    {
        return cache_ != nullptr ? &slots_[index_.at(node)] : nullptr;
    }

    SubtreeCache* cache_;
    std::vector<Slot> slots_;
    std::unordered_map<const Node*, size_t> index_;
};

} // namespace tileflow

#endif // TILEFLOW_ANALYSIS_SUBTREECACHE_HPP
