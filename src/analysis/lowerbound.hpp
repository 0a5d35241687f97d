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
 * The mapper's guard screens in two tiers (screen()): the compute
 * roofline, which costs well under a microsecond and decides almost
 * every prune, then the capacity screen; it memoizes each pruned
 * candidate's bound in the EvalCache.
 *
 * Two ingredients, each individually admissible:
 *
 *  - a compute roofline: the latency model's pure-compute pass, which
 *    reads no traffic at all and is by construction <= total cycles
 *    (the latency recursion takes a max over the compute term);
 *  - a capacity screen: per-tile step footprints lower-bounded by the
 *    largest single staged slice per tensor (exact int64), with the
 *    full analyzer's binding and boundary-crossing rules — a capacity
 *    this bound exceeds, the exact footprint exceeds too.
 *
 * What the bound deliberately ignores: all data movement, energy, and
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

/** What the lower-bound evaluator can say about one mapping. */
struct LowerBound
{
    /**
     * The compute roofline, an admissible bound on the full model's
     * cycles: for every tree the full evaluator accepts, cycles <=
     * EvalResult::cycles bitwise. Zero when `analyzed` is false or
     * the capacity screen rejected.
     */
    double cycles = 0.0;

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

/** The tiers of the mapper guard's bound screen, cheapest first. */
enum class BoundTier : uint8_t
{
    None,     ///< no tier has run
    Roofline, ///< the latency model's pure-compute pass
    Capacity, ///< capacityRejects(): the capacity screen
};

/** One run of LowerBoundEvaluator::screen(). */
struct BoundScreen
{
    /** The tree was analyzable (or screened before): some tier ran. */
    bool analyzed = false;

    /** Some tier proved the candidate cannot beat the threshold, or
     *  that the full evaluator rejects it for capacity. */
    bool pruned = false;

    /** The tier that pruned; otherwise Roofline when the roofline
     *  completed (None when it did not). */
    BoundTier tier = BoundTier::None;

    /** The roofline's bound on the full model's cycles. */
    double cycles = 0.0;

    /** The capacity screen rejected the tree (`tier` is Capacity). */
    bool capacityReject = false;
};

/**
 * The bound computer. Like Evaluator it is stateless after
 * construction and safe to share across threads. It must be
 * constructed with the SAME workload/spec/options as the full
 * evaluator it screens for — the capacity screen in particular is
 * only sound against an evaluator that enforces memory capacities.
 */
class LowerBoundEvaluator
{
  public:
    LowerBoundEvaluator(const Workload& workload, const ArchSpec& spec,
                        EvalOptions options = {})
        : workload_(&workload), spec_(&spec), options_(options)
    {
    }

    /** Convenience: mirror the full evaluator's configuration. */
    explicit LowerBoundEvaluator(const Evaluator& model)
        : LowerBoundEvaluator(model.workload(), model.spec(),
                              model.options())
    {
    }

    const Workload& workload() const { return *workload_; }
    const ArchSpec& spec() const { return *spec_; }
    const EvalOptions& options() const { return options_; }

    /**
     * Bound one mapping. Runs structural validation first, then the
     * capacity screen, then — only for capacity-clean trees — the
     * compute roofline.
     */
    LowerBound bound(const AnalysisTree& tree) const;

    /**
     * bound()'s first step: false for an empty tree or one with a
     * hard structural problem. Nothing is bounded then; the full
     * evaluator classifies the tree.
     */
    bool analyzable(const AnalysisTree& tree) const;

    /**
     * The mapper guard's tiered screen against `threshold`: the
     * roofline, then — only while it stays below the threshold — the
     * capacity screen. The verdict equals bound()'s `capacityReject ||
     * cycles >= threshold` at every threshold. A failing roofline is
     * never a verdict: the capacity screen still runs. `from` =
     * Roofline with `fromCycles` resumes a screen whose roofline ran
     * before (a memoized roofline entry): only the capacity screen
     * runs, and the tree is not validated again. Not analyzable (from
     * None): nothing runs and `analyzed` is false.
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
};

/**
 * Test hook: the next `count` screen() calls that run the roofline
 * (process-wide) throw FatalError before it, so the capacity-screen
 * fall-through can be exercised; 0 disarms. No well-formed tree makes
 * the roofline throw on its own.
 */
void armScreenFaultForTesting(int count);

} // namespace tileflow

#endif // TILEFLOW_ANALYSIS_LOWERBOUND_HPP
