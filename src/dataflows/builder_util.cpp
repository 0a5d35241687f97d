#include "dataflows/builder_util.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/smallbuf.hpp"
#include "core/mapping.hpp"

namespace tileflow {

void
appendLoop(LoopList& loops, DimId dim, int64_t extent, LoopKind kind)
{
    if (extent > 1)
        loops.push_back(Loop{dim, extent, kind});
}

std::unique_ptr<Node>
buildSingleOpSubtree(const Workload& workload, const ArchSpec& spec,
                     OpId op_id, int top_level,
                     std::span<const int64_t> outer_coverage)
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

    // The tile chain, top level first, with the op under L0; the
    // phases below append each level's loops straight into its node.
    auto top = Node::makeTile(top_level);
    SmallBuffer<Node*, 8> tiles(size_t(top_level) + 1, nullptr);
    tiles[size_t(top_level)] = top.get();
    for (int level = top_level - 1; level >= 0; --level)
        tiles[size_t(level)] =
            tiles[size_t(level) + 1]->addChild(Node::makeTile(level));
    tiles[0]->addChild(Node::makeOp(op_id));
    auto loops_at = [&](int level) -> LoopList& {
        return tiles[size_t(level)]->loops();
    };

    // --- L0: spatial mapping onto the PE array -------------------------
    SmallBuffer<int64_t, 16> l0_cov(num_dims, 1);
    if (op.kind() == ComputeKind::Matrix && num_parallel >= 2) {
        const DimId row_dim = parallel[num_parallel - 2];
        const DimId col_dim = parallel[num_parallel - 1];
        const int64_t rows =
            std::min<int64_t>(spec.peRows(), residual(row_dim));
        const int64_t cols =
            std::min<int64_t>(spec.peCols(), residual(col_dim));
        appendLoop(loops_at(0), row_dim, rows, LoopKind::Spatial);
        appendLoop(loops_at(0), col_dim, cols, LoopKind::Spatial);
        l0_cov[size_t(row_dim)] = rows;
        l0_cov[size_t(col_dim)] = cols;
    } else {
        const DimId lane_dim = parallel[num_parallel - 1];
        const int64_t lanes = std::min<int64_t>(
            op.kind() == ComputeKind::Matrix ? spec.pesPerSubCore()
                                             : spec.vectorLanes(),
            residual(lane_dim));
        appendLoop(loops_at(0), lane_dim, lanes, LoopKind::Spatial);
        l0_cov[size_t(lane_dim)] = lanes;
    }
    for (DimId d : op.reductionDims()) {
        const int64_t f0 = std::min<int64_t>(16, residual(d));
        appendLoop(loops_at(0), d, f0, LoopKind::Temporal);
        l0_cov[size_t(d)] = f0;
    }

    // --- Remaining trip counts above L0 --------------------------------
    SmallBuffer<int64_t, 16> rem(num_dims, 1);
    for (DimId d : op.dims())
        rem[size_t(d)] = ceilDiv(residual(d), l0_cov[size_t(d)]);

    // --- Spatial fanout, outermost level first -------------------------
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
                appendLoop(loops_at(level), d, s, LoopKind::Spatial);
                rem[size_t(d)] = ceilDiv(rem[size_t(d)], s);
                budget /= s;
            }
        }
    }

    // --- Temporal splits of the leftovers -------------------------------
    SmallBuffer<int64_t, 8> factors(size_t(std::max(top_level, 1)), 1);
    for (DimId d : op.dims()) {
        if (rem[size_t(d)] <= 1)
            continue;
        splitBalanced(rem[size_t(d)], top_level, factors.data());
        // factors are outermost-first: factors[0] -> top_level.
        for (int level = top_level; level >= 1; --level) {
            const int64_t f = factors[size_t(top_level - level)];
            appendLoop(loops_at(level), d, f, LoopKind::Temporal);
        }
    }
    return top;
}

} // namespace tileflow
