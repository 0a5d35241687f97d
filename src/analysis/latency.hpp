/**
 * @file
 * Latency estimation (Sec. 5.3).
 *
 * Every tile has three phases — load, compute, store — assumed fully
 * overlapped by double buffering, so the latency of one execution of a
 * tile T_n at level n is
 *
 *   Lat(T_n) = max( DM_load / BW_n,
 *                   steps(T_n) * combine(children),
 *                   DM_store / BW_n )
 *
 * where combine is a sum for Seq/Shar and a max for Para/Pipe, and a
 * leaf compute step costs ceil(points / array_throughput) cycles on
 * the matrix array or vector lanes of one sub-core.
 */

#ifndef TILEFLOW_ANALYSIS_LATENCY_HPP
#define TILEFLOW_ANALYSIS_LATENCY_HPP

#include <vector>

#include "analysis/datamovement.hpp"
#include "analysis/nodetable.hpp"
#include "arch/arch.hpp"
#include "core/tree.hpp"

namespace tileflow {

class SubtreeSlots;

/** Latency analysis output. */
struct LatencyResult
{
    /** Total runtime cycles of the mapping. */
    double cycles = 0.0;

    /** Cycles if memory were infinitely fast (compute-bound term). */
    double computeCycles = 0.0;

    /** Per Tile node: cycles of ONE execution, in node-pointer order
     *  (the memory pass adds one entry per Tile node). */
    NodeTable<double> nodeCycles;

    /**
     * Per memory level: total cycles the level spends moving data
     * (executions x (load+store)/BW summed over its tile nodes).
     * Feeds the Fig. 14 slow-down metric.
     */
    std::vector<double> levelAccessCycles;

    /** Compute utilization: matrix MACs / (total PEs x cycles); for
     *  vector-only workloads, vector ops / (total lanes x cycles). */
    double utilization = 0.0;

    /** Slow-down of a level: max(access / compute, 1) as in Sec. 7.5. */
    double slowdown(int level) const
    {
        if (computeCycles <= 0.0)
            return 1.0;
        const double ratio =
            levelAccessCycles[size_t(level)] / computeCycles;
        return ratio > 1.0 ? ratio : 1.0;
    }
};

class LatencyModel
{
  public:
    LatencyModel(const Workload& workload, const ArchSpec& spec)
        : workload_(&workload), spec_(&spec)
    {
    }

    /** Needs the per-node traffic from a prior data-movement pass.
     *  `slots` (nullable) memoizes per-node latencies; results are
     *  bit-identical with or without it. */
    LatencyResult analyze(const AnalysisTree& tree,
                          const DataMovementResult& dm,
                          SubtreeSlots* slots = nullptr) const;

    /**
     * The pure-compute pass alone (the compute roofline): equals
     * analyze()'s `computeCycles` bitwise, and so is <= its `cycles`.
     * Reads no traffic and allocates nothing, so it needs no prior
     * data-movement pass.
     */
    double rooflineCycles(const AnalysisTree& tree) const;

  private:
    const Workload* workload_;
    const ArchSpec* spec_;
};

} // namespace tileflow

#endif // TILEFLOW_ANALYSIS_LATENCY_HPP
