#include "analysis/lowerbound.hpp"

#include <atomic>

#include "analysis/datamovement.hpp"
#include "analysis/latency.hpp"
#include "analysis/resource.hpp"
#include "analysis/subtreecache.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"
#include "core/validate.hpp"

namespace tileflow {

namespace {

std::atomic<int> g_cost_faults{0};

} // namespace

void
armCostBoundFaultForTesting(int count)
{
    g_cost_faults.store(count);
}

bool
LowerBoundEvaluator::capacityRejects(const AnalysisTree& tree,
                                     std::string* reason) const
{
    if (!options_.enforceMemory)
        return false;
    const std::optional<CapacityOverflow> overflow =
        ResourceAnalyzer(*workload_, *spec_)
            .footprintLowerBoundOverflow(tree);
    if (!overflow)
        return false;
    if (reason) {
        *reason = "step footprint lower bound " +
                  humanCount(double(overflow->footprintBytes)) + "B at L" +
                  std::to_string(overflow->level) + " exceeds capacity " +
                  humanCount(double(
                      spec_->level(overflow->level).capacityBytes)) +
                  "B";
    }
    return true;
}

bool
LowerBoundEvaluator::analyzable(const AnalysisTree& tree) const
{
    if (!tree.hasRoot())
        return false;
    for (const std::string& problem : validateTree(tree, spec_)) {
        // A hard structural problem means the full evaluator rejects
        // before any analysis; there is nothing sound to bound (and
        // the analyzers below assume a sane tree).
        if (!startsWith(problem, "warn:"))
            return false;
    }
    return true;
}

LowerBound
LowerBoundEvaluator::costBound(const AnalysisTree& tree) const
{
    // Compulsory traffic only, fed through the REAL latency model:
    // per node, lat = max(child compute, lb_load + lb_store cycles)
    // is monotone in the traffic under fl-arithmetic, so the result
    // is bitwise <= the full model's cycles. The pure-compute pass
    // (the roofline) reads no traffic and comes along for free.
    SubtreeSlots slots(cache_, tree, SubtreeKind::Bound);
    const DataMovementAnalyzer dm(*workload_, *spec_);
    const DataMovementResult compulsory =
        dm.analyze(tree, &slots, TrafficMode::Compulsory);
    const LatencyModel latency(*workload_, *spec_);
    const LatencyResult lat = latency.analyze(tree, compulsory, &slots);
    slots.flush();
    LowerBound lb;
    lb.analyzed = true;
    lb.cycles = lat.cycles;
    lb.computeCycles = lat.computeCycles;
    return lb;
}

BoundScreen
LowerBoundEvaluator::screen(const AnalysisTree& tree, double threshold,
                            BoundTier from, double fromCycles) const
{
    BoundScreen out;
    if (from == BoundTier::None && !analyzable(tree))
        return out;
    out.analyzed = true;
    out.tier = from;
    out.cycles = fromCycles;
    try {
        if (g_cost_faults.load(std::memory_order_relaxed) > 0 &&
            g_cost_faults.fetch_sub(1) > 0)
            fatal("injected cost-bound fault");
        // Roofline <= compulsory bound <= exact cycles, bitwise (the
        // latency recursion is a max over the compute term), so a
        // cheaper tier's prune is the deeper one's too.
        if (out.tier < BoundTier::Roofline) {
            out.cycles =
                LatencyModel(*workload_, *spec_).rooflineCycles(tree);
            out.tier = BoundTier::Roofline;
            if (out.cycles >= threshold) {
                out.pruned = true;
                return out;
            }
        }
        if (out.tier < BoundTier::Compulsory) {
            out.cycles = costBound(tree).cycles;
            out.tier = BoundTier::Compulsory;
            if (out.cycles >= threshold) {
                out.pruned = true;
                return out;
            }
        }
    } catch (const std::exception&) {
        // bound() would still have run the capacity screen; so does
        // this.
    }
    if (capacityRejects(tree)) {
        out.tier = BoundTier::Capacity;
        out.capacityReject = true;
        out.pruned = true;
    }
    return out;
}

LowerBound
LowerBoundEvaluator::bound(const AnalysisTree& tree) const
{
    if (!analyzable(tree))
        return {};
    LowerBound lb;
    if (capacityRejects(tree, &lb.capacityReason)) {
        // A definitive full-evaluator verdict: no need to spend even
        // the compulsory traffic pass on this candidate.
        lb.analyzed = true;
        lb.capacityReject = true;
        return lb;
    }
    return costBound(tree);
}

} // namespace tileflow
