/**
 * @file
 * Analysis-tree nodes (Sec. 4.2 / Sec. 5).
 *
 * A fusion dataflow expressed in the tile-centric notation converts to
 * an analysis tree with three node kinds, mirroring the structure of
 * the paper's open-source implementation:
 *
 *  - Tile  : a loop nest `{l_1, l_2, ...}` at a memory level, iterating
 *            over its children (Eq. 1). Loops are ordered outer-first
 *            and are individually bound Sp (spatial) or Tp (temporal).
 *  - Scope : an inter-tile binding primitive (Seq/Shar/Para/Pipe)
 *            grouping several sub-tiles (Table 1).
 *  - Op    : a leaf referencing one operator of the workload; the
 *            innermost Tile above it supplies the register-level loops.
 */

#ifndef TILEFLOW_CORE_TILE_HPP
#define TILEFLOW_CORE_TILE_HPP

#include <memory>
#include <string>
#include <vector>

#include "core/loop.hpp"
#include "ir/operator.hpp"

namespace tileflow {

enum class NodeType { Tile, Scope, Op };

std::string nodeTypeName(NodeType type);

/** One node of an analysis tree. */
class Node
{
  public:
    /** Build a Tile node at the given memory level. */
    static std::unique_ptr<Node> makeTile(int mem_level,
                                          std::vector<Loop> loops);

    /** Build a Scope node with the given binding primitive. */
    static std::unique_ptr<Node> makeScope(ScopeKind kind);

    /** Build an Op leaf. */
    static std::unique_ptr<Node> makeOp(OpId op);

    NodeType type() const { return type_; }
    bool isTile() const { return type_ == NodeType::Tile; }
    bool isScope() const { return type_ == NodeType::Scope; }
    bool isOp() const { return type_ == NodeType::Op; }

    /** Tile: memory level whose buffer stages this tile's data. */
    int memLevel() const { return memLevel_; }
    void setMemLevel(int level) { memLevel_ = level; }

    /** Tile: loops, ordered outer-first. */
    const std::vector<Loop>& loops() const { return loops_; }
    std::vector<Loop>& loops() { return loops_; }

    /** Scope: the inter-tile binding primitive. */
    ScopeKind scopeKind() const { return scopeKind_; }
    void setScopeKind(ScopeKind kind) { scopeKind_ = kind; }

    /** Op: the operator id. */
    OpId op() const { return op_; }

    /** Append a child; returns a raw observer pointer. */
    Node* addChild(std::unique_ptr<Node> child);

    const std::vector<std::unique_ptr<Node>>& children() const
    {
        return children_;
    }

    Node* parent() const { return parent_; }

    size_t numChildren() const { return children_.size(); }
    Node* child(size_t i) const { return children_[i].get(); }

    /** Product of temporal loop extents (1 for non-Tile nodes). */
    int64_t temporalSteps() const;

    /** Product of spatial loop extents (1 for non-Tile nodes). */
    int64_t spatialExtent() const;

    /** Extent of this node's loop over `dim` with the given kind
     *  (1 if absent). */
    int64_t loopExtent(DimId dim, LoopKind kind) const;

    /** All Op leaves in this subtree, in execution order. */
    std::vector<const Node*> opLeaves() const;

    /** Deep copy of this subtree. */
    std::unique_ptr<Node> clone() const;

    /** Multi-line indented dump. */
    std::string str(int indent = 0) const;

  private:
    Node() = default;

    NodeType type_ = NodeType::Tile;
    int memLevel_ = 0;
    std::vector<Loop> loops_;
    ScopeKind scopeKind_ = ScopeKind::Seq;
    OpId op_ = -1;
    std::vector<std::unique_ptr<Node>> children_;
    Node* parent_ = nullptr;
};

/**
 * Visit the Op leaves of `node`'s subtree in execution order, in place
 * (no leaf list is built). `visit(leaf)` returns false to stop the
 * walk; the function returns false iff the walk was stopped.
 */
template <typename Visit>
bool
visitOpLeaves(const Node* node, Visit&& visit)
{
    if (node->isOp())
        return visit(node);
    for (const auto& child : node->children()) {
        if (!visitOpLeaves(child.get(), visit))
            return false;
    }
    return true;
}

} // namespace tileflow

#endif // TILEFLOW_CORE_TILE_HPP
