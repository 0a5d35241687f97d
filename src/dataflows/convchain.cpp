#include "dataflows/convchain.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/resource.hpp"
#include "common/logging.hpp"
#include "core/mapping.hpp"
#include "dataflows/builder_util.hpp"

namespace tileflow {

namespace {

struct ConvDims
{
    DimId h, w, c, l, k2, r, s, u, v;
    int64_t H, W, C, L, K2;
};

ConvDims
convDims(const Workload& w)
{
    ConvDims d;
    d.h = w.dimId("h");
    d.w = w.dimId("w");
    d.c = w.dimId("c");
    d.l = w.dimId("l");
    d.k2 = w.dimId("k2");
    d.r = w.dimId("r");
    d.s = w.dimId("s");
    d.u = w.dimId("u");
    d.v = w.dimId("v");
    d.H = w.dim(d.h).extent;
    d.W = w.dim(d.w).extent;
    d.C = w.dim(d.c).extent;
    d.L = w.dim(d.l).extent;
    d.K2 = w.dim(d.k2).extent;
    return d;
}

} // namespace

std::string
convChainDataflowName(ConvChainDataflow dataflow)
{
    switch (dataflow) {
      case ConvChainDataflow::Layerwise:
        return "Layerwise";
      case ConvChainDataflow::FusedLayer:
        return "Fused-Layer";
      case ConvChainDataflow::ISOS:
        return "ISOS";
      case ConvChainDataflow::TileFlowDF:
        return "TileFlow";
    }
    panic("convChainDataflowName: unknown dataflow");
}

const std::vector<ConvChainDataflow>&
mainConvChainDataflows()
{
    static const std::vector<ConvChainDataflow> flows = {
        ConvChainDataflow::Layerwise,
        ConvChainDataflow::FusedLayer,
        ConvChainDataflow::ISOS,
        ConvChainDataflow::TileFlowDF,
    };
    return flows;
}

ConvChainGrain
convChainGrainFor(ConvChainDataflow dataflow, const Workload& workload,
                  const ArchSpec& spec)
{
    (void)spec;
    const ConvDims d = convDims(workload);
    ConvChainGrain grain;
    switch (dataflow) {
      case ConvChainDataflow::Layerwise:
        grain.fused = false;
        break;
      case ConvChainDataflow::FusedLayer:
        // Height and width tiled into square activation tiles.
        grain.tH = ceilDiv(d.H, 32);
        grain.tW = ceilDiv(d.W, 32);
        break;
      case ConvChainDataflow::ISOS:
        // Only width tiled: full-height stripes.
        grain.tW = ceilDiv(d.W, 16);
        break;
      case ConvChainDataflow::TileFlowDF:
        // Intermediate channel dim tiled, the two convolutions
        // pipelined (k2 blocking happens inside conv2's own tile).
        // Coarse channel blocks keep padding and refetch low; the
        // auto-fit pass refines tL when the block overflows on chip.
        grain.tL = ceilDiv(d.L, 96);
        grain.pipeline = true;
        break;
    }
    return grain;
}

AnalysisTree
buildConvChainTree(const Workload& w, const ArchSpec& spec,
                   const ConvChainGrain& grain)
{
    const ConvDims d = convDims(w);
    const int dram = spec.dramLevel();

    if (!grain.fused) {
        AnalysisTree tree(w);
        Node* root = tree.setRoot(Node::makeTile(dram));
        for (size_t i = 0; i < w.numOps(); ++i)
            root->addChild(buildSingleOpSubtree(w, spec, OpId(i), dram));
        return tree;
    }

    // --- Tile geometry -----------------------------------------------------
    const int64_t Hu = ceilDiv(d.H, grain.tH);
    const int64_t Wu = ceilDiv(d.W, grain.tW);
    const int64_t Lc = ceilDiv(d.L, grain.tL);
    const int64_t a = std::min<int64_t>(spec.peRows(), Wu);

    // --- Spatial allocation across cores and sub-cores -------------------
    // Greedy over (h rows, w blocks, k2 blocks); k2-spatial instances
    // receive the shared Act tile by multicast. Uses a nominal column
    // split to size the k2 block pool before the exact split is known.
    const int64_t cores = spec.level(dram).fanout;
    const int64_t sub_fanout =
        spec.numLevels() >= 4 ? spec.level(2).fanout : 1;
    const int64_t b2_nominal = std::max<int64_t>(
        1, grain.pipeline ? spec.peCols() / 2 : spec.peCols());
    const int64_t w_blocks_total = ceilDiv(Wu, a);
    const int64_t k2_blocks_nominal = ceilDiv(d.K2, b2_nominal);

    int64_t budget = cores * sub_fanout;
    const int64_t sh_tot = std::min(budget, Hu);
    budget /= std::max<int64_t>(sh_tot, 1);
    const int64_t sw_tot = std::min(budget, w_blocks_total);
    budget /= std::max<int64_t>(sw_tot, 1);
    const int64_t sk2_tot = std::min(budget, k2_blocks_nominal);

    // Factor each total into a core part and a sub-core part.
    int64_t core_budget = cores;
    const int64_t sh_core = std::min(core_budget, sh_tot);
    core_budget /= std::max<int64_t>(sh_core, 1);
    const int64_t sh_sub =
        std::min(sub_fanout, ceilDiv(sh_tot, sh_core));
    int64_t sub_budget = sub_fanout / std::max<int64_t>(sh_sub, 1);
    const int64_t sw_core = std::min(core_budget, sw_tot);
    core_budget /= std::max<int64_t>(sw_core, 1);
    const int64_t sw_sub =
        std::min(sub_budget, ceilDiv(sw_tot, sw_core));
    sub_budget /= std::max<int64_t>(sw_sub, 1);
    const int64_t sk2_core = std::min(core_budget, sk2_tot);
    const int64_t sk2_sub =
        std::min(sub_budget, ceilDiv(sk2_tot, sk2_core));
    const int64_t sk2 = sk2_core * sk2_sub;

    // --- Stage split of the array columns ----------------------------------
    // Pipelined stages split the columns so both stages stay busy:
    // conv1's step time is fixed by its reduction (C*3*3), conv2's
    // depends on its column share, its post-spatial k2 blocks and the
    // l-block size (= b1). Maximize busy PE-time with padding penalty.
    int64_t b1 = std::min<int64_t>(spec.peCols(), Lc);
    int64_t b2 = std::min<int64_t>(spec.peCols(), d.K2);
    if (grain.pipeline) {
        double best_score = -1.0;
        for (int64_t cand = 1; cand < spec.peCols(); ++cand) {
            const int64_t cols2 = spec.peCols() - cand;
            const double s1 = double(d.C) * 9.0;
            const double s2 =
                double(ceilDiv(d.K2, sk2 * cols2)) * double(cand) * 9.0;
            const double slowest = std::max(s1, s2);
            const double busy = s1 * double(cand) + s2 * double(cols2);
            const double pad_l =
                double(ceilDiv(Lc, cand) * cand) / double(Lc);
            const double pad_k2 =
                double(ceilDiv(d.K2, cols2) * cols2) / double(d.K2);
            const double score = busy /
                                 (slowest * double(spec.peCols())) /
                                 (pad_l * pad_k2);
            if (score > best_score) {
                best_score = score;
                b1 = cand;
                b2 = cols2;
            }
        }
        b1 = std::min(b1, Lc);
        b2 = std::min(b2, d.K2);
    }

    const int64_t Hc = ceilDiv(Hu, sh_core * sh_sub);
    const int64_t Wc = ceilDiv(Wu, sw_core * sw_sub);
    const int64_t k2_blocks = ceilDiv(ceilDiv(d.K2, sk2), b2);
    const int64_t w_blocks = ceilDiv(Wc, a);
    const int64_t l_blocks = ceilDiv(Lc, b1);

    // --- Root (DRAM) loops -------------------------------------------------
    // Order: spatial, h/w tiles, then l innermost so the staged Out
    // block stays resident while l sweeps. k2 is never tiled in shared
    // temporal ancestors — that would force conv1 to idle per k2 block.
    auto root = Node::makeTile(dram);
    LoopList& root_loops = root->loops();
    appendLoop(root_loops, d.h, sh_core, LoopKind::Spatial);
    appendLoop(root_loops, d.w, sw_core, LoopKind::Spatial);
    appendLoop(root_loops, d.k2, sk2_core, LoopKind::Spatial);
    appendLoop(root_loops, d.h, grain.tH, LoopKind::Temporal);
    appendLoop(root_loops, d.w, grain.tW, LoopKind::Temporal);
    appendLoop(root_loops, d.l, grain.tL, LoopKind::Temporal);

    // --- L0 tiles ------------------------------------------------------------
    auto conv1_tile = Node::makeTile(0);
    LoopList& c1_loops = conv1_tile->loops();
    appendLoop(c1_loops, d.w, a, LoopKind::Spatial);
    appendLoop(c1_loops, d.l, b1, LoopKind::Spatial);
    appendLoop(c1_loops, d.c, d.C, LoopKind::Temporal);
    appendLoop(c1_loops, d.r, 3, LoopKind::Temporal);
    appendLoop(c1_loops, d.s, 3, LoopKind::Temporal);
    conv1_tile->addChild(Node::makeOp(w.opId("conv1")));

    auto conv2_tile = Node::makeTile(0);
    LoopList& c2_loops = conv2_tile->loops();
    appendLoop(c2_loops, d.w, a, LoopKind::Spatial);
    appendLoop(c2_loops, d.k2, b2, LoopKind::Spatial);
    if (grain.pipeline)
        appendLoop(c2_loops, d.k2, k2_blocks, LoopKind::Temporal);
    appendLoop(c2_loops, d.l, b1, LoopKind::Temporal);
    appendLoop(c2_loops, d.u, 3, LoopKind::Temporal);
    appendLoop(c2_loops, d.v, 3, LoopKind::Temporal);
    conv2_tile->addChild(Node::makeOp(w.opId("conv2")));

    auto fusion = Node::makeScope(grain.pipeline ? ScopeKind::Pipe
                                                 : ScopeKind::Shar);
    fusion->addChild(std::move(conv1_tile));
    fusion->addChild(std::move(conv2_tile));

    // --- Interior levels -------------------------------------------------------
    std::unique_ptr<Node> inner;
    if (spec.numLevels() >= 4) {
        const int64_t f_h = std::min<int64_t>(4, Hc);
        const int64_t f_w = std::min<int64_t>(4, w_blocks);

        auto l1 = Node::makeTile(1);
        LoopList& l1_loops = l1->loops();
        appendLoop(l1_loops, d.h, f_h, LoopKind::Temporal);
        appendLoop(l1_loops, d.w, f_w, LoopKind::Temporal);
        if (!grain.pipeline)
            appendLoop(l1_loops, d.k2, k2_blocks, LoopKind::Temporal);
        appendLoop(l1_loops, d.l, l_blocks, LoopKind::Temporal);
        l1->addChild(std::move(fusion));

        inner = Node::makeTile(2);
        LoopList& l2_loops = inner->loops();
        appendLoop(l2_loops, d.h, sh_sub, LoopKind::Spatial);
        appendLoop(l2_loops, d.w, sw_sub, LoopKind::Spatial);
        appendLoop(l2_loops, d.k2, sk2_sub, LoopKind::Spatial);
        appendLoop(l2_loops, d.h, ceilDiv(Hc, f_h), LoopKind::Temporal);
        appendLoop(l2_loops, d.w, ceilDiv(w_blocks, f_w),
                   LoopKind::Temporal);
        inner->addChild(std::move(l1));
    } else {
        inner = Node::makeTile(1);
        LoopList& l1_loops = inner->loops();
        appendLoop(l1_loops, d.h, Hc, LoopKind::Temporal);
        appendLoop(l1_loops, d.w, w_blocks, LoopKind::Temporal);
        if (!grain.pipeline)
            appendLoop(l1_loops, d.k2, k2_blocks, LoopKind::Temporal);
        appendLoop(l1_loops, d.l, l_blocks, LoopKind::Temporal);
        inner->addChild(std::move(fusion));
    }

    root->addChild(std::move(inner));
    AnalysisTree tree(w);
    tree.setRoot(std::move(root));
    return tree;
}

AnalysisTree
buildConvChainDataflow(const Workload& workload, const ArchSpec& spec,
                       ConvChainDataflow dataflow)
{
    ConvChainGrain grain = convChainGrainFor(dataflow, workload, spec);
    if (!grain.fused)
        return buildConvChainTree(workload, spec, grain);

    const ConvDims d = convDims(workload);
    std::vector<std::pair<int64_t*, int64_t>> knobs;
    switch (dataflow) {
      case ConvChainDataflow::FusedLayer:
        knobs = {{&grain.tH, d.H}, {&grain.tW, d.W}};
        break;
      case ConvChainDataflow::ISOS:
        knobs = {{&grain.tW, d.W}};
        break;
      case ConvChainDataflow::TileFlowDF:
        knobs = {{&grain.tL, d.L}, {&grain.tH, d.H}};
        break;
      default:
        break;
    }

    const ResourceAnalyzer resources(workload, spec);
    AnalysisTree tree = buildConvChainTree(workload, spec, grain);
    for (int iter = 0; iter < 64; ++iter) {
        if (resources.analyze(tree).fitsMemory)
            return tree;
        bool grew = false;
        for (auto& [knob, limit] : knobs) {
            if (*knob < limit) {
                *knob = std::min(limit, *knob * 2);
                grew = true;
                break;
            }
        }
        if (!grew)
            break;
        tree = buildConvChainTree(workload, spec, grain);
    }
    return tree;
}

} // namespace tileflow
