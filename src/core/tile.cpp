#include "core/tile.hpp"

#include <sstream>

#include "common/logging.hpp"

namespace tileflow {

std::string
nodeTypeName(NodeType type)
{
    switch (type) {
      case NodeType::Tile:
        return "tile";
      case NodeType::Scope:
        return "scope";
      case NodeType::Op:
        return "op";
    }
    panic("nodeTypeName: unknown NodeType");
}

std::unique_ptr<Node>
Node::makeTile(int mem_level, std::vector<Loop> loops)
{
    auto node = std::unique_ptr<Node>(new Node());
    node->type_ = NodeType::Tile;
    node->memLevel_ = mem_level;
    node->loops_ = std::move(loops);
    return node;
}

std::unique_ptr<Node>
Node::makeScope(ScopeKind kind)
{
    auto node = std::unique_ptr<Node>(new Node());
    node->type_ = NodeType::Scope;
    node->scopeKind_ = kind;
    return node;
}

std::unique_ptr<Node>
Node::makeOp(OpId op)
{
    auto node = std::unique_ptr<Node>(new Node());
    node->type_ = NodeType::Op;
    node->op_ = op;
    return node;
}

Node*
Node::addChild(std::unique_ptr<Node> child)
{
    if (isOp())
        fatal("Node::addChild: op leaves cannot have children");
    child->parent_ = this;
    children_.push_back(std::move(child));
    return children_.back().get();
}

int64_t
Node::temporalSteps() const
{
    int64_t steps = 1;
    for (const auto& loop : loops_) {
        if (loop.isTemporal())
            steps *= loop.extent;
    }
    return steps;
}

int64_t
Node::spatialExtent() const
{
    int64_t extent = 1;
    for (const auto& loop : loops_) {
        if (loop.isSpatial())
            extent *= loop.extent;
    }
    return extent;
}

int64_t
Node::loopExtent(DimId dim, LoopKind kind) const
{
    for (const auto& loop : loops_) {
        if (loop.dim == dim && loop.kind == kind)
            return loop.extent;
    }
    return 1;
}

std::vector<const Node*>
Node::opLeaves() const
{
    std::vector<const Node*> leaves;
    visitOpLeaves(this, [&](const Node* leaf) {
        leaves.push_back(leaf);
        return true;
    });
    return leaves;
}

std::unique_ptr<Node>
Node::clone() const
{
    auto copy = std::unique_ptr<Node>(new Node());
    copy->type_ = type_;
    copy->memLevel_ = memLevel_;
    copy->loops_ = loops_;
    copy->scopeKind_ = scopeKind_;
    copy->op_ = op_;
    for (const auto& child : children_)
        copy->addChild(child->clone());
    return copy;
}

std::string
Node::str(int indent) const
{
    std::ostringstream os;
    const std::string pad(size_t(indent) * 2, ' ');
    switch (type_) {
      case NodeType::Tile:
        os << pad << "tile L" << memLevel_ << " {";
        for (size_t i = 0; i < loops_.size(); ++i) {
            if (i > 0)
                os << ", ";
            os << "d" << loops_[i].dim << ":"
               << (loops_[i].isSpatial() ? "s" : "t") << loops_[i].extent;
        }
        os << "}\n";
        break;
      case NodeType::Scope:
        os << pad << "scope " << scopeKindName(scopeKind_) << "\n";
        break;
      case NodeType::Op:
        os << pad << "op " << op_ << "\n";
        break;
    }
    for (const auto& child : children_)
        os << child->str(indent + 1);
    return os.str();
}

} // namespace tileflow
