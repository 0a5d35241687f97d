#include "analysis/slice.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/smallbuf.hpp"
#include "common/telemetry.hpp"

namespace tileflow {

StepGeometry::StepGeometry(const Workload& workload, const Node* node,
                           bool include_node_spatial)
{
    reset(workload, node, include_node_spatial);
}

void
StepGeometry::reserve(size_t temporal_loops, size_t leaves,
                      size_t num_dims)
{
    temporal_.reserve(temporal_loops);
    units_.reserve(num_dims);
    leaves_.reserve(leaves);
    leafSpans_.reserve(leaves * num_dims);
}

void
StepGeometry::reset(const Workload& workload, const Node* node,
                    bool include_node_spatial)
{
    if (!node->isTile())
        panic("StepGeometry: node must be a Tile");
    static Counter& built =
        MetricsRegistry::global().counter("analysis.step_geometries");
    built.add();
    workload_ = &workload;
    node_ = node;

    const size_t num_dims = workload.dims().size();
    units_.assign(num_dims, 1);

    SmallBuffer<int64_t, 16> full_spatial(num_dims, 1);
    SmallBuffer<int64_t, 16> spatial_span(num_dims, 1);
    temporal_.clear();
    temporal_.reserve(node->loops().size());
    for (const Loop& loop : node->loops()) {
        if (loop.isTemporal()) {
            temporal_.push_back(loop);
        } else {
            full_spatial[size_t(loop.dim)] *= loop.extent;
            if (include_node_spatial)
                spatial_span[size_t(loop.dim)] *= loop.extent;
        }
    }

    size_t num_leaves = 0;
    visitOpLeaves(node, [&](const Node*) {
        ++num_leaves;
        return true;
    });
    leaves_.clear();
    leafSpans_.clear();
    leaves_.reserve(num_leaves);
    leafSpans_.reserve(num_leaves * num_dims);

    // One leaf-to-child walk per Op leaf yields every dim's span at
    // once. unit(d) = spatial extent at this node times the largest
    // d-span of any child subtree (always including spatial: temporal
    // steps advance past all spatial instances). The slice span
    // continues the same product through the node's own loops and
    // divides them back out — pathSpan(node, leaf, d)'s arithmetic,
    // saturation included — then scales by the included spatial
    // extent.
    SmallBuffer<int64_t, 16> child_span(num_dims, 1);
    SmallBuffer<int64_t, 16> span(num_dims, 1);
    for (const auto& child : node->children()) {
        visitOpLeaves(child.get(), [&](const Node* leaf) {
            pathSpans(child.get(), leaf, num_dims, span.data());
            for (size_t d = 0; d < num_dims; ++d)
                child_span[d] = std::max(child_span[d], span[d]);
            for (const Loop& loop : node->loops()) {
                if (size_t(loop.dim) < num_dims) {
                    int64_t& below = span[size_t(loop.dim)];
                    below = mulSat(below, loop.extent);
                }
            }
            for (const Loop& loop : node->loops()) {
                if (size_t(loop.dim) < num_dims)
                    span[size_t(loop.dim)] /= loop.extent;
            }
            for (size_t d = 0; d < num_dims; ++d)
                span[d] *= spatial_span[d];
            leaves_.push_back(leaf);
            leafSpans_.insert(leafSpans_.end(), span.data(),
                              span.data() + num_dims);
            return true;
        });
    }
    for (size_t d = 0; d < num_dims; ++d)
        units_[d] = full_spatial[d] * child_span[d];
}

const int64_t*
StepGeometry::spanRow(const Node* leaf) const
{
    for (size_t i = 0; i < leaves_.size(); ++i) {
        if (leaves_[i] == leaf)
            return &leafSpans_[i * units_.size()];
    }
    panic("StepGeometry: leaf is not inside the node");
}

std::vector<int64_t>
StepGeometry::leafSpan(const Node* leaf) const
{
    const int64_t* row = spanRow(leaf);
    return std::vector<int64_t>(row, row + units_.size());
}

HyperRect
StepGeometry::slice(const Node* leaf, const TensorAccess& access,
                    const std::vector<int64_t>& temporal_idx) const
{
    return slice(workload_->op(leaf->op()), access, spanRow(leaf),
                 temporal_idx);
}

HyperRect
StepGeometry::slice(const Operator& op, const TensorAccess& access,
                    const int64_t* span_row,
                    const std::vector<int64_t>& temporal_idx) const
{
    SmallBuffer<int64_t, 16> base(units_.size(), 0);
    for (size_t k = 0; k < temporal_.size(); ++k) {
        const Loop& loop = temporal_[k];
        base[size_t(loop.dim)] +=
            temporal_idx[k] * units_[size_t(loop.dim)];
    }
    return op.sliceOf(access, base.data(), span_row);
}

HyperRect
StepGeometry::slice(const Node* leaf, const TensorAccess& access,
                    const std::vector<int64_t>& temporal_idx,
                    const std::vector<int64_t>& dim_base) const
{
    const size_t num_dims = units_.size();
    SmallBuffer<int64_t, 16> base(num_dims, 0);
    if (!dim_base.empty()) {
        if (dim_base.size() != num_dims)
            panic("StepGeometry::slice: dim_base rank mismatch");
        for (size_t d = 0; d < num_dims; ++d)
            base[d] = dim_base[d];
    }
    for (size_t k = 0; k < temporal_.size(); ++k) {
        const Loop& loop = temporal_[k];
        base[size_t(loop.dim)] +=
            temporal_idx[k] * units_[size_t(loop.dim)];
    }

    const Operator& op = workload_->op(leaf->op());
    return op.sliceOf(access, base.data(), spanRow(leaf));
}

void
StepGeometry::beforeAdvance(size_t k, bool conservative,
                            std::vector<int64_t>& idx) const
{
    idx.assign(temporal_.size(), 0);
    if (conservative) {
        for (size_t j = k + 1; j < temporal_.size(); ++j)
            idx[j] = temporal_[j].extent - 1;
    }
}

void
StepGeometry::afterAdvance(size_t k, std::vector<int64_t>& idx) const
{
    idx.assign(temporal_.size(), 0);
    idx[k] = 1;
}

std::vector<int64_t>
StepGeometry::lastStep() const
{
    std::vector<int64_t> idx(temporal_.size(), 0);
    for (size_t j = 0; j < temporal_.size(); ++j)
        idx[j] = temporal_[j].extent - 1;
    return idx;
}

int64_t
StepGeometry::advances(size_t k) const
{
    if (temporal_[k].extent <= 1)
        return 0;
    int64_t outer = 1;
    for (size_t j = 0; j < k; ++j)
        outer *= temporal_[j].extent;
    return (temporal_[k].extent - 1) * outer;
}

int64_t
StepGeometry::advancesFor(size_t k, const Operator& op,
                          const TensorAccess& access) const
{
    if (temporal_[k].extent <= 1)
        return 0;

    auto relevant = [&](DimId dim) {
        for (const auto& dim_expr : access.projection) {
            for (const auto& term : dim_expr) {
                if (term.dim == dim)
                    return true;
            }
        }
        // Outer reduction loops revisit a written tensor's tile.
        return access.isWrite && op.isReduction(dim);
    };

    if (!relevant(temporal_[k].dim))
        return 0;
    int64_t outer = 1;
    for (size_t j = 0; j < k; ++j) {
        if (relevant(temporal_[j].dim))
            outer *= temporal_[j].extent;
    }
    return (temporal_[k].extent - 1) * outer;
}

} // namespace tileflow
