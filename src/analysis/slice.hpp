/**
 * @file
 * Data-slice computation for tile nodes (Sec. 5.1).
 *
 * For a Tile node `v`, one *temporal step* fixes the indices of v's
 * temporal loops; everything below v (descendant loops plus v's own
 * spatial loops) executes in full. The data slice an access touches in
 * that step is a hyper-rectangle:
 *
 *   per workload dim d:
 *     span(d) = product of d-loop extents on the path from v's child
 *               down to the accessing leaf, times v's spatial d-extent
 *     base(d) = sum over v's temporal d-loops of idx * unit(v, d)
 *
 * where unit(v, d) — the dim-d progress of one step of v — is the
 * largest d-span of any of v's child subtrees times v's spatial
 * d-extent. The rectangle follows from the access's affine projection
 * (Operator::sliceOf).
 */

#ifndef TILEFLOW_ANALYSIS_SLICE_HPP
#define TILEFLOW_ANALYSIS_SLICE_HPP

#include <vector>

#include "core/tree.hpp"
#include "geom/hyperrect.hpp"

namespace tileflow {

/**
 * Cached per-node geometry used by the data-movement and resource
 * analyses. Constructed once per (tree, node), or reset() onto each
 * node in turn to reuse its buffers.
 */
class StepGeometry
{
  public:
    /** An empty geometry, to reset() onto a node before use. */
    StepGeometry() = default;

    /**
     * @param workload the tree's workload
     * @param node a Tile node of the tree
     * @param include_node_spatial when false, the node's own spatial
     *        loops are excluded from slice spans — slices then describe
     *        the data of ONE spatial instance (used by the per-instance
     *        footprint check in the resource analysis)
     */
    StepGeometry(const Workload& workload, const Node* node,
                 bool include_node_spatial = true);

    /** Rebuild for `node` (same arguments as the constructor), keeping
     *  the buffers' capacity. */
    void reset(const Workload& workload, const Node* node,
               bool include_node_spatial = true);

    /** Reserve room for nodes of up to `temporal_loops` temporal
     *  loops and `leaves` Op leaves over `num_dims` workload dims, so
     *  that reset() onto such nodes allocates nothing. */
    void reserve(size_t temporal_loops, size_t leaves, size_t num_dims);

    const Node* node() const { return node_; }

    /** v's temporal loops, outer-first (positions into loopIdx). */
    const std::vector<Loop>& temporalLoops() const { return temporal_; }

    /**
     * Slice of `access` (in leaf `leaf`, a descendant Op node) for the
     * step at the given temporal indices (aligned with
     * temporalLoops()). Ancestor indices are held at zero, which is
     * sound because boundary deltas are translation invariant.
     */
    HyperRect slice(const Node* leaf, const TensorAccess& access,
                    const std::vector<int64_t>& temporal_idx) const;

    /**
     * Same, for a leaf running `op` whose span row (spanRow) the caller
     * looked up once: a caller that slices one leaf at many steps skips
     * the per-call leaf search.
     */
    HyperRect slice(const Operator& op, const TensorAccess& access,
                    const int64_t* span_row,
                    const std::vector<int64_t>& temporal_idx) const;

    /**
     * Same, but with an additional per-workload-dim base offset added
     * before projecting — used by the concrete oracle to anchor the
     * slice at the true position given the ancestor loop indices
     * (instead of the translation-invariant zero anchor).
     */
    HyperRect slice(const Node* leaf, const TensorAccess& access,
                    const std::vector<int64_t>& temporal_idx,
                    const std::vector<int64_t>& dim_base) const;

    /** Dim-d progress per step of the node. */
    int64_t unit(DimId dim) const { return units_[size_t(dim)]; }

    /**
     * Per-dim span of every slice of `leaf` (a descendant Op node):
     * pathSpan(node, leaf, d) with the node's own d-extents divided
     * back out, times the node's included spatial d-extent. Computed
     * for every leaf at construction, in the same walk as unit().
     */
    std::vector<int64_t> leafSpan(const Node* leaf) const;

    /** The leafSpan of `leaf` in place, one entry per workload dim;
     *  valid until the next reset(). */
    const int64_t* spanRow(const Node* leaf) const;

    /**
     * Write into `idx` the index vector for the step just *before*
     * temporal loop `k` (position into temporalLoops()) advances.
     *
     * Phase-matched (default): inner loops at 0, so the boundary delta
     * isolates the movement caused by loop k alone — the convention
     * that grants Timeloop-style reuse across irrelevant outer loops.
     * Conservative: inner loops at their last iteration (the literal
     * adjacent-step reading of Sec. 5.1.1, which assumes replacement
     * on every outer iteration).
     */
    void beforeAdvance(size_t k, bool conservative,
                       std::vector<int64_t>& idx) const;

    /** Write into `idx` the index vector just *after* loop k advances:
     *  k at 1, inner at 0. */
    void afterAdvance(size_t k, std::vector<int64_t>& idx) const;

    /** Index vector of the last step (all loops at extent - 1). */
    std::vector<int64_t> lastStep() const;

    /**
     * How many times temporal loop k advances during one execution of
     * the node: (N_k - 1) * prod of outer trip counts (Sec. 5.1.1).
     */
    int64_t advances(size_t k) const;

    /**
     * Advance count for one tensor access: outer loops whose dim the
     * access does not touch (and, for reads, that are not reduction
     * revisits of a written tensor) do not refetch — their sweeps
     * reuse the staged block, matching the polyhedron model's
     * relevant-loop counting.
     */
    int64_t advancesFor(size_t k, const Operator& op,
                        const TensorAccess& access) const;

  private:
    const Workload* workload_ = nullptr;
    const Node* node_ = nullptr;
    std::vector<Loop> temporal_;
    std::vector<int64_t> units_;        // per workload dim
    std::vector<const Node*> leaves_;   // the node's Op leaves
    std::vector<int64_t> leafSpans_;    // per leaf, per workload dim
};

} // namespace tileflow

#endif // TILEFLOW_ANALYSIS_SLICE_HPP
