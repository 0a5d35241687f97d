#include "dataflows/builder_util.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/smallbuf.hpp"
#include "core/mapping.hpp"

namespace tileflow {

void
appendLoop(std::vector<Loop>& loops, DimId dim, int64_t extent,
           LoopKind kind)
{
    if (extent > 1)
        loops.push_back(Loop{dim, extent, kind});
}

std::unique_ptr<Node>
buildSingleOpSubtree(const Workload& workload, const ArchSpec& spec,
                     OpId op_id, int top_level)
{
    return buildSingleOpSubtree(workload, spec, op_id, top_level, {});
}

std::unique_ptr<Node>
buildSingleOpSubtree(const Workload& workload, const ArchSpec& spec,
                     OpId op_id, int top_level,
                     const std::vector<int64_t>& outer_coverage)
{
    const Operator& op = workload.op(op_id);
    const size_t num_dims = workload.dims().size();

    // Residual trip count this subtree must cover per dim, after the
    // enclosing loops (if any) took their share.
    auto residual = [&](DimId d) {
        const int64_t extent = workload.dim(d).extent;
        if (size_t(d) >= outer_coverage.size())
            return extent;
        return ceilDiv(extent,
                       std::max<int64_t>(1, outer_coverage[size_t(d)]));
    };

    SmallBuffer<DimId, 16> parallel(op.dims().size(), -1);
    size_t num_parallel = 0;
    for (DimId d : op.dims()) {
        if (!op.isReduction(d))
            parallel[num_parallel++] = d;
    }
    if (num_parallel == 0)
        fatal("buildSingleOpSubtree: op ", op.name(),
              " has no parallel dims");

    // --- L0: spatial mapping onto the PE array -------------------------
    SmallBuffer<int64_t, 16> l0_cov(num_dims, 1);
    // At most one L0 loop per op dim; above L0, one spatial and one
    // temporal loop per dim and level.
    std::vector<Loop> l0_loops;
    l0_loops.reserve(op.dims().size());
    if (op.kind() == ComputeKind::Matrix && num_parallel >= 2) {
        const DimId row_dim = parallel[num_parallel - 2];
        const DimId col_dim = parallel[num_parallel - 1];
        const int64_t rows =
            std::min<int64_t>(spec.peRows(), residual(row_dim));
        const int64_t cols =
            std::min<int64_t>(spec.peCols(), residual(col_dim));
        appendLoop(l0_loops, row_dim, rows, LoopKind::Spatial);
        appendLoop(l0_loops, col_dim, cols, LoopKind::Spatial);
        l0_cov[size_t(row_dim)] = rows;
        l0_cov[size_t(col_dim)] = cols;
    } else {
        const DimId lane_dim = parallel[num_parallel - 1];
        const int64_t lanes = std::min<int64_t>(
            op.kind() == ComputeKind::Matrix ? spec.pesPerSubCore()
                                             : spec.vectorLanes(),
            residual(lane_dim));
        appendLoop(l0_loops, lane_dim, lanes, LoopKind::Spatial);
        l0_cov[size_t(lane_dim)] = lanes;
    }
    for (DimId d : op.reductionDims()) {
        const int64_t f0 = std::min<int64_t>(16, residual(d));
        appendLoop(l0_loops, d, f0, LoopKind::Temporal);
        l0_cov[size_t(d)] = f0;
    }

    // --- Remaining trip counts above L0 --------------------------------
    SmallBuffer<int64_t, 16> rem(num_dims, 1);
    for (DimId d : op.dims())
        rem[size_t(d)] = ceilDiv(residual(d), l0_cov[size_t(d)]);

    // --- Spatial fanout, outermost level first -------------------------
    std::vector<std::vector<Loop>> level_loops(size_t(top_level) + 1);
    for (int level = 1; level <= top_level; ++level)
        level_loops[size_t(level)].reserve(2 * op.dims().size());
    for (int level = top_level; level >= 1; --level) {
        int64_t budget = spec.level(level).fanout;
        if (budget <= 1)
            continue;
        for (size_t i = 0; i < num_parallel; ++i) {
            const DimId d = parallel[i];
            if (budget <= 1)
                break;
            const int64_t s = std::min(budget, rem[size_t(d)]);
            if (s > 1) {
                appendLoop(level_loops[size_t(level)], d, s,
                           LoopKind::Spatial);
                rem[size_t(d)] = ceilDiv(rem[size_t(d)], s);
                budget /= s;
            }
        }
    }

    // --- Temporal splits of the leftovers -------------------------------
    for (DimId d : op.dims()) {
        if (rem[size_t(d)] <= 1)
            continue;
        const std::vector<int64_t> factors =
            splitBalanced(rem[size_t(d)], top_level);
        // factors are outermost-first: factors[0] -> top_level.
        for (int level = top_level; level >= 1; --level) {
            const int64_t f = factors[size_t(top_level - level)];
            appendLoop(level_loops[size_t(level)], d, f,
                       LoopKind::Temporal);
        }
    }

    // --- Assemble inside-out --------------------------------------------
    auto tile = Node::makeTile(0, std::move(l0_loops));
    tile->addChild(Node::makeOp(op_id));
    for (int level = 1; level <= top_level; ++level) {
        auto parent =
            Node::makeTile(level, std::move(level_loops[size_t(level)]));
        parent->addChild(std::move(tile));
        tile = std::move(parent);
    }
    return tile;
}

} // namespace tileflow
