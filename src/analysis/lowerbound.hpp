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
 * It is cheaper than that evaluation, not cheap: cold, validation, the
 * compulsory-traffic pass and the latency model still walk every
 * node's slices, about 30-45 us per cold call on bench_incremental's
 * Bert-S and Bert-L streams (one Xeon vCPU), a third to a half of a
 * full evaluation. So the mapper's guard runs the cost part before the
 * capacity screen (the cost part prunes far more often) and
 * memoizes each pruned candidate's bound in the EvalCache. Given the
 * search's SubtreeCache, the cost part is also incremental per Tile
 * node, like the full evaluation: after a single-knob mutation only
 * the changed node's ancestor spine is re-bounded (about 10-15 us per
 * call on the same streams).
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
     * bound()'s bitwise; the mapper's guard runs it before the
     * capacity screen because it prunes far more often.
     */
    LowerBound costBound(const AnalysisTree& tree) const;

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
 * Test hook: the next `count` costBound() calls (process-wide) throw
 * FatalError instead of bounding, so callers' fall-through paths can
 * be exercised; 0 disarms. No well-formed tree makes the cost pass
 * throw on its own.
 */
void armCostBoundFaultForTesting(int count);

} // namespace tileflow

#endif // TILEFLOW_ANALYSIS_LOWERBOUND_HPP
