/**
 * @file
 * The mapper's hardened evaluation boundary.
 *
 * A candidate mapping drawn by the search can fail in three ways the
 * search loop must survive:
 *  - the space's tree builder throws (structurally-impossible combo);
 *  - Evaluator::evaluate throws FatalError (user-level model error,
 *    including injected faults);
 *  - the evaluator returns a "valid" result whose cycles are NaN,
 *    infinite or non-positive (a poisoned success).
 *
 * guardedEvaluate converts all three into a tagged infeasible
 * CachedEval carrying the failure reason, so a bad candidate is a
 * search outcome (penalty + histogram entry), never a crashed search.
 * panic() — an internal invariant violation — calls abort() and is
 * deliberately NOT caught: a TileFlow bug must not be masked as an
 * infeasible mapping.
 */

#ifndef TILEFLOW_MAPPER_GUARD_HPP
#define TILEFLOW_MAPPER_GUARD_HPP

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "analysis/evaluator.hpp"
#include "analysis/lowerbound.hpp"
#include "mapper/encoding.hpp"
#include "mapper/evalcache.hpp"

namespace tileflow {

/** Failure-reason histogram: reason string → occurrence count. */
using FailureHistogram = std::map<std::string, uint64_t>;

/**
 * Branch-and-bound context for guardedEvaluate's bound-first path.
 * When passed (non-null, with a non-null evaluator), the candidate's
 * tree is built once and lower-bounded before full evaluation: a
 * roofline already >= `bestCycles`, or a capacity-screen reject,
 * returns a CachedEval with `pruned` set — never fully evaluated and
 * never counted in `mapper.evaluations`. The pruned verdict carries
 * the bound (`boundCycles`, `capacityReject`); because the verdict
 * itself depends on the caller's threshold, callers cache the bound
 * as a bound-only entry, never the verdict.
 *
 * The screen runs in two tiers (LowerBoundEvaluator::screen): the
 * compute roofline, then the capacity screen only when the roofline
 * does not prune (or throws). The verdict is the same `capacityReject
 * || bound >= bestCycles` as LowerBoundEvaluator::bound() gives. Each
 * prune is counted under the tier that decided it — the capacity
 * screen when the verdict's `capacityReject` is set, else the roofline
 * (mapper.bound_pruned_{roofline,capacity}).
 *
 * Caller contract: `bound` must be constructed from the same
 * workload/spec/options as the evaluator it screens for, and
 * `bestCycles` must be a cycle count some fully evaluated valid
 * mapping actually achieved (or +inf before one exists — the
 * capacity screen still applies then).
 */
struct BoundPrune
{
    const LowerBoundEvaluator* bound = nullptr;

    /** Prune when the candidate's lower-bound cycles reach this. */
    double bestCycles = std::numeric_limits<double>::infinity();

    /**
     * The candidate's bound-only EvalCache entry, if the lookup found
     * one. It replaces the tiers it covers: when it prunes against
     * `bestCycles` the tree is not even built, and otherwise (a
     * roofline entry) only the capacity screen runs.
     */
    const CachedEval* memo = nullptr;
};

/**
 * The bound-only EvalCache entry that stands for a pruned verdict:
 * its bound and capacity reject, and nothing threshold-dependent.
 */
CachedEval boundOnlyEntry(const CachedEval& pruned);

class VerdictLog;

/**
 * Build and evaluate `choices`, converting every throw and every
 * non-finite "valid" result into a tagged infeasible CachedEval.
 * Never throws (panic/abort excepted). `prune` (nullable) arms the
 * bound-first branch-and-bound screen described above. `cache`
 * (nullable) memoizes the evaluation's per-subtree partials; the
 * verdict is bit-identical with or without it, so it changes a
 * search's throughput, never its outcome. `log` (nullable) stands in
 * for the evaluator call: a logged verdict is returned instead
 * (counted in `mapper.replayed`, and still an evaluation), and a
 * fresh evaluator verdict is appended to it (mapper/verdictlog.hpp).
 */
CachedEval guardedEvaluate(const Evaluator& evaluator,
                           const MappingSpace& space,
                           const std::vector<int64_t>& choices,
                           const BoundPrune* prune = nullptr,
                           SubtreeCache* cache = nullptr,
                           VerdictLog* log = nullptr);

/** Merge `from` into `into` (histogram accumulation). */
void mergeHistogram(FailureHistogram& into, const FailureHistogram& from);

/** Sum of all counts in a histogram. */
uint64_t histogramTotal(const FailureHistogram& hist);

} // namespace tileflow

#endif // TILEFLOW_MAPPER_GUARD_HPP
