#include "analysis/lowerbound.hpp"

#include <atomic>

#include "analysis/latency.hpp"
#include "analysis/resource.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"
#include "core/validate.hpp"

namespace tileflow {

namespace {

std::atomic<int> g_screen_faults{0};

} // namespace

void
armScreenFaultForTesting(int count)
{
    g_screen_faults.store(count);
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
    if (from == BoundTier::None) {
        try {
            if (g_screen_faults.load(std::memory_order_relaxed) > 0 &&
                g_screen_faults.fetch_sub(1) > 0)
                fatal("injected screen fault");
            // Roofline <= exact cycles, bitwise (the latency recursion
            // is a max over the compute term).
            out.cycles =
                LatencyModel(*workload_, *spec_).rooflineCycles(tree);
            out.tier = BoundTier::Roofline;
            if (out.cycles >= threshold) {
                out.pruned = true;
                return out;
            }
        } catch (const std::exception&) {
            // bound() would still have run the capacity screen; so
            // does this.
        }
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
    lb.analyzed = true;
    lb.capacityReject = capacityRejects(tree, &lb.capacityReason);
    if (!lb.capacityReject)
        lb.cycles = LatencyModel(*workload_, *spec_).rooflineCycles(tree);
    return lb;
}

} // namespace tileflow
