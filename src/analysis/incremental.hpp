/**
 * @file
 * Incremental evaluation: Evaluator semantics with per-subtree
 * memoization.
 *
 * Search engines mutate one knob of a mapping at a time, so successive
 * evaluations share most of their tree. IncrementalEvaluator wraps a
 * plain Evaluator and a SubtreeCache: each Tile node's analysis
 * partials (data-movement traffic, step footprint, per-execution
 * latencies) are looked up under (subtreeHash, contextSignature)
 * before being recomputed. After a single-knob mutation only the
 * changed node and its ancestor spine miss — siblings and, for
 * context-preserving knobs like scope-kind flips, even the changed
 * node's former neighbors hit.
 *
 * Bit-identity contract: evaluate() returns an EvalResult equal bit
 * for bit to base().evaluate() on the same tree. Cached partials are
 * the exact values a fresh analysis computes, and both paths
 * accumulate them through the same analyzer code in the same order,
 * so no floating-point reassociation can creep in. The tier-1
 * property test (tests/test_incremental.cpp) asserts this across
 * every oracle fuzz family.
 *
 * Telemetry: bumps `analysis.incremental_evals` (the full path bumps
 * `analysis.evaluations`) and times itself in
 * `analysis.incremental_evaluate_ns`; cache traffic lands in the
 * `analysis.subtree_*` counters. Trace spans reuse the evaluate.*
 * names so one trace viewer profile covers both paths.
 */

#ifndef TILEFLOW_ANALYSIS_INCREMENTAL_HPP
#define TILEFLOW_ANALYSIS_INCREMENTAL_HPP

#include <optional>
#include <unordered_map>
#include <vector>

#include "analysis/evaluator.hpp"
#include "analysis/subtreecache.hpp"

namespace tileflow {

/**
 * One analysis pass's view of a SubtreeCache, shared by the
 * incremental evaluator (SubtreeKind::Eval) and the lower bound's
 * cost pass (SubtreeKind::Bound).
 *
 * The constructor is the pre-pass: exactly ONE cache lookup per Tile
 * node, under the keys of one tileKeys() walk, so subtree_hits +
 * subtree_misses == subtree_lookups by construction
 * (tools/telemetry_check enforces it). The hooks serve the cached
 * partials to the analyzers and collect the fresh ones; flush() gives
 * the fresh ones back to the cache. With a null cache every hook is
 * empty, latencyMemo() is null and flush() does nothing: the
 * analyzers then run exactly as their hook-less overloads.
 *
 * Per-call state: the hooks capture `this`, so an instance lives on
 * the stack of one analysis and is neither copied nor moved.
 */
class SubtreeSlots
{
  public:
    SubtreeSlots(SubtreeCache* cache, const AnalysisTree& tree,
                 SubtreeKind kind);

    SubtreeSlots(const SubtreeSlots&) = delete;
    SubtreeSlots& operator=(const SubtreeSlots&) = delete;

    DataMovementAnalyzer::PartialLookup dmLookup();
    DataMovementAnalyzer::PartialRecord dmRecord();
    ResourceAnalyzer::FootprintLookup footprintLookup();
    ResourceAnalyzer::FootprintRecord footprintRecord();
    const LatencyMemo* latencyMemo() const;

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

    Slot& slotOf(const Node* node) { return slots_[index_.at(node)]; }

    SubtreeCache* cache_;
    std::vector<Slot> slots_;
    std::unordered_map<const Node*, size_t> index_;
    LatencyMemo memo_;
};

/**
 * Thread-safety: evaluate() is reentrant, like Evaluator's. All
 * per-call state is local; the shared SubtreeCache is internally
 * synchronized. One IncrementalEvaluator may serve the mapper's whole
 * thread pool.
 */
class IncrementalEvaluator
{
  public:
    IncrementalEvaluator(const Evaluator& base, SubtreeCache& cache)
        : base_(&base), cache_(&cache)
    {
    }

    const Evaluator& base() const { return *base_; }
    SubtreeCache& cache() const { return *cache_; }

    /** Evaluate one mapping; bit-identical to base().evaluate(tree). */
    EvalResult evaluate(const AnalysisTree& tree) const;

  private:
    const Evaluator* base_;
    SubtreeCache* cache_;
};

} // namespace tileflow

#endif // TILEFLOW_ANALYSIS_INCREMENTAL_HPP
