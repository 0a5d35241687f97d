/**
 * @file
 * Shared flattened view of a Tile node's content: the inter-tile
 * binding plus the list of child subtrees with cached metadata. Used
 * by the data-movement analysis, the resource analysis and the
 * concrete oracle, so all three agree on which children exist, which
 * are passthrough, and what escapes a child's subtree.
 */

#ifndef TILEFLOW_ANALYSIS_CHILDGROUP_HPP
#define TILEFLOW_ANALYSIS_CHILDGROUP_HPP

#include <vector>

#include "core/tree.hpp"

namespace tileflow {

/** A run of Op leaves stored elsewhere, for range-for. */
struct LeafRange
{
    const Node* const* first = nullptr;
    const Node* const* last = nullptr;

    const Node* const* begin() const { return first; }
    const Node* const* end() const { return last; }
    size_t size() const { return size_t(last - first); }
};

/** One child subtree of a Tile node plus cached metadata. */
struct ChildInfo
{
    const Node* subtree = nullptr;
    int level = -1; // memory level of the child's buffer; -1 for op leaf

    /** The child's Op leaves in execution order: a range into its
     *  ChildGroup's `leaves`. */
    LeafRange leaves;

    /** Child tile declared at the SAME level as the parent (e.g., the
     *  per-op tiles of the Layerwise dataflow under a DRAM root): the
     *  child manages its own traffic at that level, the parent only
     *  sequences it. */
    bool passthrough = false;
};

/**
 * The flattened (binding, children) view of a Tile node's content.
 * The children's leaf ranges point into `leaves`, so a group is not
 * copied: childGroupOf refills one in place.
 */
struct ChildGroup
{
    ScopeKind binding = ScopeKind::Seq;
    std::vector<ChildInfo> children;

    /** Every child's Op leaves, child after child. */
    std::vector<const Node*> leaves;

    ChildGroup() = default;
    ChildGroup(const ChildGroup&) = delete;
    ChildGroup& operator=(const ChildGroup&) = delete;
};

/** Highest Tile memory level in the subtree (-1 for a bare Op leaf). */
int subtreeLevel(const Node* node);

/**
 * The memory level whose buffers one step of `tile` stages data in:
 * the highest child subtree level below the tile's own, at least 0
 * (registers for L0 tiles). Step footprints are checked against its
 * capacity.
 */
int stagingLevel(const Node* tile);

/** Flatten a Tile node into `group`, reusing its buffers: unwrap a
 *  single Scope child into its binding and children, otherwise treat
 *  direct children as Seq-bound. */
void childGroupOf(const Node* tile, ChildGroup& group);

/** True iff the producer op of `tensor` lives inside `child`. */
bool producedInside(const Workload& workload, TensorId tensor,
                    const ChildInfo& child);

/**
 * True iff data of `tensor` written inside `child` must leave the
 * child's buffer: it is consumed by an op outside the child subtree,
 * or it is a terminal workload output.
 */
bool escapesChild(const Workload& workload, TensorId tensor,
                  const ChildInfo& child);

} // namespace tileflow

#endif // TILEFLOW_ANALYSIS_CHILDGROUP_HPP
