#include "dataflows/chain.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/smallbuf.hpp"
#include "core/mapping.hpp"
#include "dataflows/builder_util.hpp"

namespace tileflow {

std::vector<DimId>
chainSharedDims(const Workload& workload)
{
    const size_t num_dims = workload.dims().size();
    std::vector<int> users(num_dims, 0);
    std::vector<bool> blocked(num_dims, false);
    for (size_t i = 0; i < workload.numOps(); ++i) {
        const Operator& op = workload.op(OpId(i));
        bool produces_intermediate = false;
        for (TensorId t : op.outputTensors()) {
            produces_intermediate =
                produces_intermediate || workload.isIntermediate(t);
        }
        for (DimId d : op.dims()) {
            users[size_t(d)]++;
            if (produces_intermediate && op.isReduction(d))
                blocked[size_t(d)] = true;
        }
    }

    std::vector<DimId> shared;
    for (size_t d = 0; d < num_dims; ++d) {
        if (users[d] >= 2 && !blocked[d])
            shared.push_back(DimId(d));
    }
    std::sort(shared.begin(), shared.end(), [&](DimId a, DimId b) {
        return workload.dim(a).extent > workload.dim(b).extent;
    });
    if (shared.size() > 4)
        shared.resize(4);
    return shared;
}

AnalysisTree
buildChainTree(const Workload& workload, const ArchSpec& spec,
               const ChainGrain& grain)
{
    const int dram = spec.dramLevel();

    if (!grain.fused || workload.numOps() < 2) {
        AnalysisTree tree(workload);
        Node* root = tree.setRoot(Node::makeTile(dram));
        for (size_t i = 0; i < workload.numOps(); ++i)
            root->addChild(
                buildSingleOpSubtree(workload, spec, OpId(i), dram));
        return tree;
    }

    if (grain.dims.size() != grain.factors.size())
        fatal("buildChainTree: ", grain.dims.size(), " dims vs ",
              grain.factors.size(), " factors");

    // --- Root (DRAM) loops over the shared dims ------------------------
    // Spatial core split first (largest dim), then the temporal tile
    // factors; coverage accumulates so each factor is clamped to the
    // trip count actually left.
    const size_t num_dims = workload.dims().size();
    SmallBuffer<int64_t, 16> coverage(num_dims, 1);
    auto root = Node::makeTile(dram);
    LoopList& root_loops = root->loops();
    if (grain.spatialCores && !grain.dims.empty()) {
        const DimId d0 = grain.dims.front();
        const int64_t s =
            std::min<int64_t>(spec.level(dram).fanout,
                              workload.dim(d0).extent);
        appendLoop(root_loops, d0, s, LoopKind::Spatial);
        coverage[size_t(d0)] *= std::max<int64_t>(1, s);
    }
    for (size_t i = 0; i < grain.dims.size(); ++i) {
        const DimId d = grain.dims[i];
        const int64_t left =
            ceilDiv(workload.dim(d).extent, coverage[size_t(d)]);
        const int64_t f =
            std::min<int64_t>(std::max<int64_t>(1, grain.factors[i]),
                              left);
        appendLoop(root_loops, d, f, LoopKind::Temporal);
        coverage[size_t(d)] *= f;
    }

    // --- Fusion scope with residual-sized per-op subtrees --------------
    // Subtrees top out one level below DRAM: the root already spent
    // the core fanout, so concurrent pipeline stages don't each claim
    // the full core budget again.
    const int top_level = std::max(1, dram - 1);
    auto fusion = Node::makeScope(grain.pipeline ? ScopeKind::Pipe
                                                 : ScopeKind::Shar);
    for (size_t i = 0; i < workload.numOps(); ++i)
        fusion->addChild(buildSingleOpSubtree(
            workload, spec, OpId(i), top_level,
            std::span<const int64_t>(coverage.data(), num_dims)));

    root->addChild(std::move(fusion));
    AnalysisTree tree(workload);
    tree.setRoot(std::move(root));
    return tree;
}

} // namespace tileflow
