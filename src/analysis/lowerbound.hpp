/**
 * @file
 * Admissible lower-bound evaluation for branch-and-bound search.
 *
 * The full evaluator spends almost all of its time in the
 * data-movement interpreter (resident-rectangle simulation per loop
 * boundary). This evaluator computes a cycle count that is provably
 * <= the full model's — bitwise, not just mathematically — so the
 * mapper can discard a candidate whose *bound* already exceeds the
 * best mapping found so far without paying for its full evaluation.
 *
 * The full bound is cheaper than that evaluation, not cheap: cold,
 * the compulsory-traffic pass walks every node's slices, about 20-26
 * us per call on bench_incremental's Bert-S and Bert-L streams (Xeon
 * VM), where the compute roofline alone costs well under a microsecond
 * and decides almost every prune. So the mapper's guard screens in
 * tiers (screen(): roofline, then the compulsory bound, then the
 * capacity screen) and memoizes each pruned candidate's bound and tier
 * in the EvalCache. Given the search's SubtreeCache, the compulsory
 * pass is also incremental per Tile node, like the full evaluation:
 * after a single-knob mutation only the changed node's ancestor spine
 * is re-bounded (about 7-9 us per call on the same streams).
 *
 * Three ingredients, each individually admissible:
 *
 *  - a compute roofline: the latency model's pure-compute pass, which
 *    reads no traffic at all and is by construction <= total cycles;
 *  - a bandwidth bound: per-node *compulsory* traffic only (the
 *    cold-start slice fills plus the final write-back), skipping all
 *    revisit/eviction boundary traffic. Every skipped term is
 *    non-negative and fl-addition is monotone, so the compulsory
 *    fl-sum — an in-order subsequence of the exact accumulation — is
 *    bitwise <= the exact bytes, and the latency model's per-node
 *    max(compute, load+store/BW) combination preserves that ordering;
 *  - a capacity screen: per-tile step footprints lower-bounded by the
 *    largest single staged slice per tensor (exact int64), with the
 *    full analyzer's binding and boundary-crossing rules — a capacity
 *    this bound exceeds, the exact footprint exceeds too.
 *
 * What the bound deliberately ignores: revisit and eviction traffic,
 * Seq dirty-eviction write-backs beyond the final one, energy, and
 * all compute/fanout feasibility checks (those stay with the full
 * evaluator — only the *memory capacity* screen is replicated here,
 * because a buffer overflow is the one rejection provable without
 * the interpreter).
 */

#ifndef TILEFLOW_ANALYSIS_LOWERBOUND_HPP
#define TILEFLOW_ANALYSIS_LOWERBOUND_HPP

#include <cstdint>
#include <string>

#include "analysis/evaluator.hpp"
#include "arch/arch.hpp"
#include "core/tree.hpp"

namespace tileflow {

class SubtreeCache;

/** What the lower-bound evaluator can say about one mapping. */
struct LowerBound
{
    /**
     * Admissible bound on the full model's cycles: for every tree the
     * full evaluator accepts, cycles <= EvalResult::cycles bitwise.
     * Zero when `analyzed` is false or the capacity screen rejected.
     */
    double cycles = 0.0;

    /** The pure-compute (roofline) component of `cycles`. */
    double computeCycles = 0.0;

    /** The step-footprint lower bound of some tile exceeds a finite
     *  buffer capacity: the full evaluator (with enforceMemory on)
     *  is guaranteed to reject this tree as a memory violation. */
    bool capacityReject = false;

    /** First violation found (empty unless `capacityReject`). */
    std::string capacityReason;

    /** False when no bound was computed (empty tree, or structural
     *  validation failed — the full evaluator will classify those).
     *  A caller must never prune on an un-analyzed bound. */
    bool analyzed = false;
};

/**
 * The tiers of the mapper guard's bound screen, cheapest first; each
 * bound is bitwise <= the next, so running them in order prunes
 * exactly what the deepest alone would.
 */
enum class BoundTier : uint8_t
{
    None,       ///< no tier has run
    Roofline,   ///< the latency model's pure-compute pass
    Compulsory, ///< costBound(): the compulsory-traffic latency bound
    Capacity,   ///< capacityRejects(): the capacity screen
};

/** One run of LowerBoundEvaluator::screen(). */
struct BoundScreen
{
    /** The tree was analyzable (or screened before): some tier ran. */
    bool analyzed = false;

    /** Some tier proved the candidate cannot beat the threshold, or
     *  that the full evaluator rejects it for capacity. */
    bool pruned = false;

    /** The tier that pruned; otherwise the deepest cost tier that
     *  completed (None when none did). */
    BoundTier tier = BoundTier::None;

    /** That cost tier's bound on the full model's cycles. */
    double cycles = 0.0;

    /** The capacity screen rejected the tree (`tier` is Capacity). */
    bool capacityReject = false;
};

/**
 * The bound computer. Like Evaluator it is stateless after
 * construction and safe to share across threads (the optional
 * SubtreeCache is internally synchronized). It must be constructed
 * with the SAME workload/spec/options as the full evaluator it screens
 * for — the capacity screen in particular is only sound against an
 * evaluator that enforces memory capacities.
 *
 * With a SubtreeCache, costBound() is incremental: each Tile node's
 * compulsory traffic partial and bound-pass latencies are looked up
 * under its (subtreeHash, contextSignature) key tagged
 * SubtreeKind::Bound, and fresh ones are recorded, exactly as
 * Evaluator::evaluate does for the full model (the two share
 * SubtreeSlots and may share one cache). Cached partials are the
 * values a fresh pass computes, so the bound is bit-identical with or
 * without the cache; a null cache runs the same code.
 */
class LowerBoundEvaluator
{
  public:
    LowerBoundEvaluator(const Workload& workload, const ArchSpec& spec,
                        EvalOptions options = {},
                        SubtreeCache* cache = nullptr)
        : workload_(&workload), spec_(&spec), options_(options),
          cache_(cache)
    {
    }

    /** Convenience: mirror the full evaluator's configuration. */
    explicit LowerBoundEvaluator(const Evaluator& model,
                                 SubtreeCache* cache = nullptr)
        : LowerBoundEvaluator(model.workload(), model.spec(),
                              model.options(), cache)
    {
    }

    const Workload& workload() const { return *workload_; }
    const ArchSpec& spec() const { return *spec_; }
    const EvalOptions& options() const { return options_; }

    /**
     * Bound one mapping. Runs structural validation first, then the
     * capacity screen, then — only for capacity-clean trees — the
     * compulsory-traffic latency bound.
     */
    LowerBound bound(const AnalysisTree& tree) const;

    /**
     * bound()'s first step: false for an empty tree or one with a
     * hard structural problem. Nothing is bounded then; the full
     * evaluator classifies the tree.
     */
    bool analyzable(const AnalysisTree& tree) const;

    /**
     * bound()'s cost part alone — the compulsory-traffic latency
     * bound, with no validation and no capacity screen. The tree must
     * be analyzable(). For a capacity-clean tree the result equals
     * bound()'s bitwise; its `computeCycles` is the roofline.
     */
    LowerBound costBound(const AnalysisTree& tree) const;

    /**
     * The mapper guard's tiered screen against `threshold`: the
     * roofline, then the compulsory-traffic bound, each only while
     * the cheaper one stays below the threshold, then the capacity
     * screen. The verdict equals bound()'s `capacityReject || cycles
     * >= threshold` at every threshold. A failing cost tier is never
     * a verdict: the capacity screen still runs. `from` / `fromCycles`
     * resume a screen that reached that tier with that bound before
     * (a memoized bound-only entry): only the deeper tiers run, and
     * the tree is not validated again. Not analyzable (from None):
     * nothing runs and `analyzed` is false.
     */
    BoundScreen screen(const AnalysisTree& tree, double threshold,
                       BoundTier from = BoundTier::None,
                       double fromCycles = 0.0) const;

    /**
     * The capacity screen alone (no traffic / latency work): true iff
     * some tile's step-footprint lower bound exceeds a finite buffer
     * capacity, which the full evaluator also rejects. Always false
     * when the options do not enforce memory. The tree must be
     * structurally valid (the GA prescreen validates first). `reason`
     * (nullable) receives the first violation.
     */
    bool capacityRejects(const AnalysisTree& tree,
                         std::string* reason = nullptr) const;

  private:
    const Workload* workload_;
    const ArchSpec* spec_;
    EvalOptions options_;
    SubtreeCache* cache_;
};

/**
 * Test hook: the next `count` screen() calls (process-wide) throw
 * FatalError from their cost tiers, before the roofline, so the
 * capacity-screen fall-through can be exercised; 0 disarms. No
 * well-formed tree makes a cost tier throw on its own.
 */
void armCostBoundFaultForTesting(int count);

} // namespace tileflow

#endif // TILEFLOW_ANALYSIS_LOWERBOUND_HPP
