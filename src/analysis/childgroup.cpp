#include "analysis/childgroup.hpp"

#include <algorithm>

namespace tileflow {

int
subtreeLevel(const Node* node)
{
    if (node->isTile())
        return node->memLevel();
    if (node->isOp())
        return -1;
    int level = -1;
    for (const auto& child : node->children())
        level = std::max(level, subtreeLevel(child.get()));
    return level;
}

int
stagingLevel(const Node* tile)
{
    int level = -1;
    for (const auto& child : tile->children()) {
        const int cl = subtreeLevel(child.get());
        if (cl < tile->memLevel())
            level = std::max(level, cl);
    }
    return std::max(level, 0);
}

void
childGroupOf(const Node* tile, ChildGroup& group)
{
    group.binding = ScopeKind::Seq;
    group.children.clear();
    group.leaves.clear();
    const Node* source = tile;
    if (tile->numChildren() == 1 && tile->child(0)->isScope()) {
        group.binding = tile->child(0)->scopeKind();
        source = tile->child(0);
    }
    // With room for every leaf reserved up front, the pointers taken
    // into `leaves` below stay valid while it fills.
    size_t num_leaves = 0;
    visitOpLeaves(source, [&](const Node*) {
        ++num_leaves;
        return true;
    });
    group.leaves.reserve(num_leaves);
    for (const auto& child : source->children()) {
        ChildInfo info;
        info.subtree = child.get();
        info.level = subtreeLevel(child.get());
        info.leaves.first = group.leaves.data() + group.leaves.size();
        visitOpLeaves(child.get(), [&](const Node* leaf) {
            group.leaves.push_back(leaf);
            return true;
        });
        info.leaves.last = group.leaves.data() + group.leaves.size();
        info.passthrough = info.level >= tile->memLevel();
        group.children.push_back(info);
    }
}

bool
producedInside(const Workload& workload, TensorId tensor,
               const ChildInfo& child)
{
    const OpId producer = workload.producerOf(tensor);
    if (producer < 0)
        return false;
    for (const Node* leaf : child.leaves) {
        if (leaf->op() == producer)
            return true;
    }
    return false;
}

bool
escapesChild(const Workload& workload, TensorId tensor,
             const ChildInfo& child)
{
    const std::vector<OpId>& consumers = workload.consumersOf(tensor);
    if (consumers.empty())
        return true; // terminal output
    for (OpId consumer : consumers) {
        bool inside = false;
        for (const Node* leaf : child.leaves)
            inside = inside || leaf->op() == consumer;
        if (!inside)
            return true;
    }
    return false;
}

} // namespace tileflow
