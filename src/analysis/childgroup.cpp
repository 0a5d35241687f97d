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

ChildGroup
childGroupOf(const Node* tile)
{
    ChildGroup group;
    const Node* source = tile;
    if (tile->numChildren() == 1 && tile->child(0)->isScope()) {
        group.binding = tile->child(0)->scopeKind();
        source = tile->child(0);
    }
    for (const auto& child : source->children()) {
        ChildInfo info;
        info.subtree = child.get();
        info.level = subtreeLevel(child.get());
        info.leaves = child->opLeaves();
        info.passthrough = info.level >= tile->memLevel();
        group.children.push_back(std::move(info));
    }
    return group;
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
