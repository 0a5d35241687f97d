#include "mapper/guard.hpp"

#include <cmath>
#include <exception>
#include <new>

#include "common/logging.hpp"
#include "common/telemetry.hpp"
#include "mapper/verdictlog.hpp"

namespace tileflow {

namespace {

/** mapper.bound_pruned and its per-tier buckets: each prune counts
 *  in the total and under the tier that decided it — the capacity
 *  screen for a capacity reject, else the roofline. */
struct PruneCounters
{
    Counter& total;
    Counter& roofline;
    Counter& capacity;

    void
    add(bool capacity_reject)
    {
        total.add();
        (capacity_reject ? capacity : roofline).add();
    }
};

} // namespace

CachedEval
boundOnlyEntry(const CachedEval& pruned)
{
    CachedEval entry;
    entry.boundOnly = true;
    entry.capacityReject = pruned.capacityReject;
    entry.boundCycles = pruned.boundCycles;
    return entry;
}

CachedEval
guardedEvaluate(const Evaluator& evaluator, const MappingSpace& space,
                const std::vector<int64_t>& choices,
                const BoundPrune* prune, SubtreeCache* cache,
                VerdictLog* log)
{
    // The single chokepoint every candidate without a cached verdict
    // passes through, in both the GA and MCTS paths. Accounting
    // invariants (telemetry_check enforces them):
    //   mapper.candidates == mapper.bound_pruned + mapper.evaluations
    //   mapper.bound_evals + mapper.bound_memo_hits >= bound_pruned
    //   mapper.bound_pruned == the sum of bound_pruned_{roofline,
    //       capacity}
    // — every candidate either prunes on the lower bound (computed,
    // or read from a bound-only cache entry) or pays a full
    // evaluation, which a resumed search's verdict log may serve
    // (mapper.replayed); `mapper.evaluations` always equals
    // MapperResult::evaluations.
    static Counter& candidates =
        MetricsRegistry::global().counter("mapper.candidates");
    static Counter& evals =
        MetricsRegistry::global().counter("mapper.evaluations");
    static Counter& replayed =
        MetricsRegistry::global().counter("mapper.replayed");
    static Counter& failed =
        MetricsRegistry::global().counter("mapper.failed_evaluations");
    static Counter& oomFailed =
        MetricsRegistry::global().counter("mem.oom_failed_evals");
    static Counter& boundEvals =
        MetricsRegistry::global().counter("mapper.bound_evals");
    static Counter& boundMemoHits =
        MetricsRegistry::global().counter("mapper.bound_memo_hits");
    static PruneCounters boundPruned{
        MetricsRegistry::global().counter("mapper.bound_pruned"),
        MetricsRegistry::global().counter("mapper.bound_pruned_roofline"),
        MetricsRegistry::global().counter("mapper.bound_pruned_capacity")};
    // Roofline/actual ratio in percent per screened, fully evaluated
    // valid candidate: 100 means the roofline was exact, small values
    // mean it was loose. Tightness telemetry only — no invariant
    // beyond histogram well-formedness depends on it.
    static Histogram& tightness =
        MetricsRegistry::global().histogram("mapper.bound_tightness");
    candidates.add();

    CachedEval out;
    const LowerBoundEvaluator* lbe =
        prune != nullptr ? prune->bound : nullptr;
    const CachedEval* memo = lbe != nullptr ? prune->memo : nullptr;
    if (memo != nullptr) {
        // A memoized bound stands in for the tiers it covers and is
        // judged against this caller's threshold the same way; a
        // prune here skips even the tree build.
        boundMemoHits.add();
        out.boundCycles = memo->boundCycles;
        out.capacityReject = memo->capacityReject;
        if (memo->capacityReject ||
            memo->boundCycles >= prune->bestCycles) {
            out.pruned = true;
            boundPruned.add(out.capacityReject);
            return out;
        }
    }

    // A candidate that reaches (or throws before reaching) the full
    // evaluator counts as an evaluation, pruned ones never do. Only a
    // verdict the evaluator itself gave goes into the log.
    bool counted_eval = false;
    bool fresh = false;
    try {
        // One build serves both the bound screen and the full
        // evaluation (the screen must not double the tree-build cost
        // it is trying to save).
        const AnalysisTree tree = space.build(choices);

        // Only a completed roofline feeds the tightness histogram.
        bool have_bound = false;
        if (lbe != nullptr) {
            // Either prune is sound: the candidate's cycles provably
            // cannot beat the caller's best, or the full evaluator
            // provably rejects it for capacity. A failing screen is
            // never a verdict: the full evaluator classifies the
            // candidate. A memo that did not prune is a roofline
            // entry: its bound (copied into `out` above) resumes the
            // screen at the capacity tier.
            try {
                const BoundScreen screen = lbe->screen(
                    tree, prune->bestCycles,
                    memo != nullptr ? BoundTier::Roofline : BoundTier::None,
                    out.boundCycles);
                if (memo == nullptr && screen.analyzed)
                    boundEvals.add();
                out.boundCycles = screen.cycles;
                out.capacityReject = screen.capacityReject;
                if (screen.pruned) {
                    out.pruned = true;
                    boundPruned.add(out.capacityReject);
                    return out;
                }
                have_bound = screen.tier == BoundTier::Roofline;
            } catch (const std::exception&) {
            }
        }

        counted_eval = true;
        evals.add();
        if (log != nullptr && log->replay(choices, out)) {
            replayed.add();
        } else {
            fresh = log != nullptr;
            const EvalResult full = evaluator.evaluate(tree, cache);
            if (full.valid &&
                !(std::isfinite(full.cycles) && full.cycles > 0.0)) {
                out.failed = true;
                out.failReason = "non-finite or non-positive cycles";
            } else {
                out.valid = full.valid;
                out.cycles = full.cycles;
            }
        }
        if (have_bound && out.valid) {
            tightness.observe(
                uint64_t(100.0 * out.boundCycles / out.cycles));
        }
    } catch (const FatalError& e) {
        out.failed = true;
        out.failReason = e.what();
    } catch (const std::bad_alloc&) {
        // Allocation failure anywhere under evaluation (including an
        // injected `oom` fault) is an infeasible candidate, not a
        // crash.
        out.failed = true;
        out.failReason = "oom";
        oomFailed.add();
    } catch (const std::exception& e) {
        out.failed = true;
        out.failReason = concat("unexpected exception: ", e.what());
    }
    if (out.failed) {
        // A throwing tree build never reached the evals.add() above;
        // it still counts as a (failed) evaluation so the candidates
        // identity holds on every path.
        if (!counted_eval)
            evals.add();
        failed.add();
    }
    if (fresh)
        log->append(choices, out);
    return out;
}

void
mergeHistogram(FailureHistogram& into, const FailureHistogram& from)
{
    for (const auto& [reason, count] : from)
        into[reason] += count;
}

uint64_t
histogramTotal(const FailureHistogram& hist)
{
    uint64_t total = 0;
    for (const auto& [reason, count] : hist)
        total += count;
    return total;
}

} // namespace tileflow
