/**
 * @file
 * Resource-usage analysis (Sec. 5.2).
 *
 * NumPE and Footprint are computed bottom-up over the analysis tree
 * with the paper's combination rules:
 *
 *   NumPE:     Seq/Shar -> max(children), Para/Pipe -> sum(children)
 *   Footprint: Seq      -> max(children), otherwise  -> sum(children)
 *
 * Matrix-array MACs and vector lanes are tracked separately (the
 * Sec. 7.1 accelerator has distinct arrays), and spatial loops at
 * levels >= 1 consume sub-core instances.
 */

#ifndef TILEFLOW_ANALYSIS_RESOURCE_HPP
#define TILEFLOW_ANALYSIS_RESOURCE_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arch/arch.hpp"
#include "core/tree.hpp"

namespace tileflow {

class SubtreeSlots;

/** Resource usage of one mapping. */
struct ResourceResult
{
    /** Matrix MACs used inside one sub-core (peak over tree). */
    int64_t matrixPEs = 0;

    /** Vector lanes used inside one sub-core (peak over tree). */
    int64_t vectorLanes = 0;

    /** Sub-core instances occupied simultaneously. */
    int64_t subCoresUsed = 1;

    /** Peak bytes resident per instance of each memory level. */
    std::vector<int64_t> footprintBytes;

    bool fitsMemory = true;
    bool fitsCompute = true;

    /** Every violation, in detection order (usage checks first, then
     *  the tree walk's footprint / fanout checks). */
    std::vector<std::string> violations;

    /** The subset of `violations` that set fitsMemory = false
     *  (capacity overflows). The evaluator's enforcement paths report
     *  only the class that actually gated the result. */
    std::vector<std::string> memoryViolations;

    /** The subset of `violations` that set fitsCompute = false
     *  (PE / lane / sub-core / fanout overruns). */
    std::vector<std::string> computeViolations;

    bool ok() const { return fitsMemory && fitsCompute; }
};

/** A buffer level whose staged bytes exceed its capacity. */
struct CapacityOverflow
{
    int level = 0;              ///< the staging level
    int64_t footprintBytes = 0; ///< the footprint found there
};

class ResourceAnalyzer
{
  public:
    ResourceAnalyzer(const Workload& workload, const ArchSpec& spec)
        : workload_(&workload), spec_(&spec)
    {
    }

    /**
     * Analyze resource usage.
     * @param enforce_memory  record capacity violations (Table 7's
     *        "No Memory Limit" scenario passes false)
     * @param slots  (nullable) serves per-Tile-node step footprints —
     *        the expensive part (slice-union geometry) — from / records
     *        them into a SubtreeCache. Footprints are exact int64s and
     *        violation strings are regenerated deterministically from
     *        them, so the result is identical with or without it.
     */
    ResourceResult analyze(const AnalysisTree& tree,
                           bool enforce_memory = true,
                           SubtreeSlots* slots = nullptr) const;

    /** Step footprint of one Tile node (see Sec. 5.2). */
    int64_t tileStepFootprint(const Node* tile) const;

    /**
     * The capacity screen of analysis/lowerbound.hpp: analyze()'s
     * walk, staging-level attribution and capacity check, with each
     * Tile node's footprint replaced by an exact integer lower bound
     * on it — per tensor, the largest single staged slice instead of
     * the slice union (O(rects) instead of the union's
     * inclusion-exclusion cost). Returns the first overflow in walk
     * order, or nothing. A capacity exceeded by this bound is
     * exceeded by the exact footprint too, so analyze() with
     * enforce_memory records a violation whenever this finds one.
     */
    std::optional<CapacityOverflow>
    footprintLowerBoundOverflow(const AnalysisTree& tree) const;

  private:
    const Workload* workload_;
    const ArchSpec* spec_;
};

} // namespace tileflow

#endif // TILEFLOW_ANALYSIS_RESOURCE_HPP
