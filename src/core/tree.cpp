#include "core/tree.hpp"

#include <algorithm>
#include <limits>

#include "common/logging.hpp"

namespace tileflow {

Node*
AnalysisTree::setRoot(std::unique_ptr<Node> root)
{
    root_ = std::move(root);
    return root_.get();
}

AnalysisTree
AnalysisTree::clone() const
{
    AnalysisTree copy(*workload_);
    if (root_)
        copy.setRoot(root_->clone());
    return copy;
}

std::string
AnalysisTree::str() const
{
    return root_ ? root_->str() : std::string("(empty tree)\n");
}

int64_t
mulSat(int64_t a, int64_t b)
{
    const __int128 wide = __int128(a) * __int128(b);
    if (wide > __int128(std::numeric_limits<int64_t>::max()))
        return std::numeric_limits<int64_t>::max();
    return int64_t(wide);
}

int64_t
pathSpan(const Node* subtree, const Node* leaf, DimId dim)
{
    if (!leaf->isOp())
        panic("pathSpan: leaf argument must be an Op node");
    int64_t span = 1;
    const Node* cursor = leaf;
    while (cursor != nullptr) {
        if (cursor->isTile()) {
            for (const auto& loop : cursor->loops()) {
                if (loop.dim == dim)
                    span = mulSat(span, loop.extent);
            }
        }
        if (cursor == subtree)
            return span;
        cursor = cursor->parent();
    }
    panic("pathSpan: leaf is not inside the given subtree");
}

std::vector<int64_t>
pathSpans(const Node* subtree, const Node* leaf, size_t num_dims)
{
    std::vector<int64_t> spans(num_dims);
    pathSpans(subtree, leaf, num_dims, spans.data());
    return spans;
}

void
pathSpans(const Node* subtree, const Node* leaf, size_t num_dims,
          int64_t* spans)
{
    if (!leaf->isOp())
        panic("pathSpans: leaf argument must be an Op node");
    std::fill(spans, spans + num_dims, int64_t(1));
    for (const Node* cursor = leaf; cursor != nullptr;
         cursor = cursor->parent()) {
        if (cursor->isTile()) {
            for (const auto& loop : cursor->loops()) {
                if (size_t(loop.dim) < num_dims) {
                    int64_t& span = spans[size_t(loop.dim)];
                    span = mulSat(span, loop.extent);
                }
            }
        }
        if (cursor == subtree)
            return;
    }
    panic("pathSpans: leaf is not inside the given subtree");
}

int64_t
subtreeSpan(const Node* subtree, DimId dim)
{
    int64_t best = 1;
    for (const Node* leaf : subtree->opLeaves())
        best = std::max(best, pathSpan(subtree, leaf, dim));
    return best;
}

int64_t
executionCount(const Node* node)
{
    int64_t count = 1;
    for (const Node* cursor = node->parent(); cursor != nullptr;
         cursor = cursor->parent()) {
        if (cursor->isTile()) {
            count = mulSat(count, mulSat(cursor->temporalSteps(),
                                         cursor->spatialExtent()));
        }
    }
    return count;
}

bool
equalTrees(const Node* a, const Node* b)
{
    if (a == nullptr || b == nullptr)
        return a == b;
    if (a->type() != b->type() || a->numChildren() != b->numChildren())
        return false;
    switch (a->type()) {
      case NodeType::Tile: {
        if (a->memLevel() != b->memLevel() ||
            a->loops().size() != b->loops().size()) {
            return false;
        }
        for (size_t i = 0; i < a->loops().size(); ++i) {
            const Loop& la = a->loops()[i];
            const Loop& lb = b->loops()[i];
            if (la.dim != lb.dim || la.kind != lb.kind ||
                la.extent != lb.extent) {
                return false;
            }
        }
        break;
      }
      case NodeType::Scope:
        if (a->scopeKind() != b->scopeKind())
            return false;
        break;
      case NodeType::Op:
        return a->op() == b->op();
    }
    for (size_t i = 0; i < a->numChildren(); ++i) {
        if (!equalTrees(a->children()[i].get(), b->children()[i].get()))
            return false;
    }
    return true;
}

bool
equalTrees(const AnalysisTree& a, const AnalysisTree& b)
{
    return equalTrees(a.root(), b.root());
}

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/** Fold one 64-bit value into an FNV-1a hash, byte by byte (the same
 *  scheme EvalCache::hashChoices uses, so hash quality is known). */
uint64_t
fnvMix(uint64_t hash, uint64_t value)
{
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= value & 0xffULL;
        hash *= 0x100000001b3ULL;
        value >>= 8;
    }
    return hash;
}

/** A node's own equalTrees fields, before its children's hashes. */
uint64_t
hashOwnFields(const Node* node)
{
    uint64_t hash = fnvMix(kFnvOffset, uint64_t(node->type()));
    switch (node->type()) {
      case NodeType::Tile:
        hash = fnvMix(hash, uint64_t(node->memLevel()));
        hash = fnvMix(hash, uint64_t(node->loops().size()));
        for (const Loop& loop : node->loops()) {
            hash = fnvMix(hash, uint64_t(loop.dim));
            hash = fnvMix(hash, uint64_t(loop.kind));
            hash = fnvMix(hash, uint64_t(loop.extent));
        }
        break;
      case NodeType::Scope:
        hash = fnvMix(hash, uint64_t(node->scopeKind()));
        break;
      case NodeType::Op:
        hash = fnvMix(hash, uint64_t(int64_t(node->op())));
        break;
    }
    return fnvMix(hash, uint64_t(node->numChildren()));
}

/** Extend a context hash by one ancestor (the child's view of it). */
uint64_t
extendContext(uint64_t hash, const Node* ancestor)
{
    hash = fnvMix(hash, uint64_t(ancestor->type()));
    if (ancestor->isTile()) {
        hash = fnvMix(hash, uint64_t(ancestor->memLevel()));
        hash = fnvMix(hash, uint64_t(ancestor->loops().size()));
        for (const Loop& loop : ancestor->loops()) {
            hash = fnvMix(hash, uint64_t(loop.dim));
            hash = fnvMix(hash, uint64_t(loop.kind));
            hash = fnvMix(hash, uint64_t(loop.extent));
        }
    }
    // Scope kinds are deliberately NOT hashed — see tree.hpp.
    return hash;
}

/** tileKeys' walk: records `node`'s Tile keys (preorder) and returns
 *  its subtreeHash. */
uint64_t
collectTileKeys(const Node* node, uint64_t context,
                std::vector<TileKey>& out)
{
    const size_t slot = out.size();
    if (node->isTile())
        out.push_back(TileKey{node, 0, context});
    const uint64_t child_context = extendContext(context, node);
    uint64_t hash = hashOwnFields(node);
    for (const auto& child : node->children())
        hash = fnvMix(hash, collectTileKeys(child.get(), child_context, out));
    if (node->isTile())
        out[slot].hash = hash;
    return hash;
}

} // namespace

uint64_t
subtreeHash(const Node* node)
{
    uint64_t hash = hashOwnFields(node);
    for (const auto& child : node->children())
        hash = fnvMix(hash, subtreeHash(child.get()));
    return hash;
}

uint64_t
contextSignature(const Node* node)
{
    // Ancestors are hashed root-first so the signature reflects the
    // chain's order, not just its contents.
    std::vector<const Node*> chain;
    for (const Node* cursor = node->parent(); cursor != nullptr;
         cursor = cursor->parent())
        chain.push_back(cursor);

    uint64_t hash = kFnvOffset;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it)
        hash = extendContext(hash, *it);
    return hash;
}

std::vector<TileKey>
tileKeys(const Node* root)
{
    std::vector<TileKey> keys;
    if (root != nullptr)
        collectTileKeys(root, contextSignature(root), keys);
    return keys;
}

const Node*
enclosingTile(const Node* node)
{
    for (const Node* cursor = node->parent(); cursor != nullptr;
         cursor = cursor->parent()) {
        if (cursor->isTile())
            return cursor;
    }
    return nullptr;
}

bool
isAncestorOf(const Node* ancestor, const Node* node)
{
    for (const Node* cursor = node; cursor != nullptr;
         cursor = cursor->parent()) {
        if (cursor == ancestor)
            return true;
    }
    return false;
}

} // namespace tileflow
