/**
 * @file
 * Tree-based data-movement analysis (Sec. 5.1).
 *
 * For every Tile node v at memory level n, the analyzer computes the
 * traffic between level n and its children's buffers:
 *
 *  - single-tile movement (5.1.1): per temporal-loop boundary, the
 *    slice set-difference |Slice^t - Slice^{t-1}|, scaled by the
 *    boundary's advance count;
 *  - inter-tile movement (5.1.2): children visited in order per step,
 *    each child owning a *resident rectangle* per tensor (its buffer
 *    content); Seq evicts residents at child switches, Shar/Para/Pipe
 *    keep them;
 *  - outputs move upward only when displaced from the child's buffer,
 *    plus one final write-back of the last slice;
 *  - tensors produced and consumed inside the same child subtree
 *    generate no traffic at v (the hand-off happened at a lower level).
 *
 * Traffic is recorded per memory level in three classes matching the
 * paper's Fig. 10d breakdown: `read` (level n buffer feeding level
 * n-1), `fill` (writes into level n from level n+1) and `update`
 * (outputs written into level n from below).
 */

#ifndef TILEFLOW_ANALYSIS_DATAMOVEMENT_HPP
#define TILEFLOW_ANALYSIS_DATAMOVEMENT_HPP

#include <string>
#include <vector>

#include "analysis/nodetable.hpp"
#include "arch/arch.hpp"
#include "core/tree.hpp"

namespace tileflow {

class SubtreeSlots;

/** Byte counters for one memory level. */
struct LevelTraffic
{
    double readBytes = 0.0;
    double fillBytes = 0.0;
    double updateBytes = 0.0;

    double total() const { return readBytes + fillBytes + updateBytes; }
};

/** Per-execution load/store bytes of one Tile node (latency inputs). */
struct NodeTraffic
{
    double loadBytes = 0.0;
    double storeBytes = 0.0;
};

/** Full result of the data-movement analysis for one mapping. */
struct DataMovementResult
{
    /** Per memory level, whole-run byte totals. */
    std::vector<LevelTraffic> levels;

    /** Per Tile node, bytes moved by ONE execution of the node: one
     *  entry per Tile node, in node-pointer order. */
    NodeTable<NodeTraffic> perNode;

    /** Arithmetic ops including tiling-padding waste. */
    double paddedOps = 0.0;

    /** Arithmetic ops of the workload itself. */
    double effectiveOps = 0.0;

    /** Subset of effectiveOps executed on the matrix arrays (the PE
     *  utilization denominator counts matrix MACs only). */
    double effectiveMatrixOps = 0.0;

    /** Traffic at the DRAM level (convenience). */
    double dramBytes() const
    {
        return levels.empty() ? 0.0 : levels.back().total();
    }

    std::string str(const ArchSpec& spec) const;
};

/**
 * Whole-run traffic contribution of one Tile node — the expensive part
 * of the analysis (resident-rectangle simulation per loop boundary).
 * The values depend only on the node's subtree and its ancestor Tile
 * loops, so memoized evaluation caches them under
 * (subtreeHash, contextSignature); see analysis/subtreecache.hpp.
 */
struct DmNodePartial
{
    /** Bytes this level reads from above / writes upward, whole-run. */
    double loadBytes = 0.0;
    double storeBytes = 0.0;

    /** Per child-group slot: bytes filled into / drained out of the
     *  child's buffer, and the child's memory level (-1 = op leaf). */
    std::vector<double> childFill;
    std::vector<double> childDrain;
    std::vector<int> childLevels;
};

/**
 * The Sec. 5.1 analyzer. Stateless apart from workload/arch refs: each
 * call keeps its working buffers on its own stack, so one analyzer
 * serves concurrent calls.
 */
class DataMovementAnalyzer
{
  public:
    DataMovementAnalyzer(const Workload& workload, const ArchSpec& spec)
        : workload_(&workload), spec_(&spec)
    {
    }

    /**
     * Analyze the whole tree. `slots` (nullable) serves per-Tile-node
     * partials from / records them into a SubtreeCache. Cached and
     * fresh partials feed the same accumulation statements in the same
     * order, so the result is bit-identical with or without it (the
     * memoized-evaluation property tests assert this).
     *
     * One scratch serves every Tile node of the call: the node's access
     * plan (the per-access facts the step simulation reads), the
     * resident table and the traffic buffers are reserved once for the
     * whole tree, so the call makes a fixed number of allocations
     * however many nodes the tree has. A node's partial is copied out
     * of the scratch only when `slots` records it.
     */
    DataMovementResult analyze(const AnalysisTree& tree,
                               SubtreeSlots* slots = nullptr) const;

    /** Whole-run traffic of one Tile node (the per-node hot path). */
    DmNodePartial analyzeTile(const Node* node) const;

  private:
    const Workload* workload_;
    const ArchSpec* spec_;
};

} // namespace tileflow

#endif // TILEFLOW_ANALYSIS_DATAMOVEMENT_HPP
