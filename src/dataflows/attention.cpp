#include "dataflows/attention.hpp"

#include <algorithm>

#include "analysis/resource.hpp"
#include "common/logging.hpp"
#include "core/mapping.hpp"
#include "dataflows/builder_util.hpp"

namespace tileflow {

namespace {

/** Dim handles of an attention workload (see buildAttention). */
struct AttentionDims
{
    DimId b, h, m, l, n, k;
    int64_t B, H, M, L, N, K;
};

AttentionDims
attentionDims(const Workload& w)
{
    AttentionDims d;
    d.b = w.dimId("b");
    d.h = w.dimId("h");
    d.m = w.dimId("m");
    d.l = w.dimId("l");
    d.n = w.dimId("n");
    d.k = w.dimId("k");
    d.B = w.dim(d.b).extent;
    d.H = w.dim(d.h).extent;
    d.M = w.dim(d.m).extent;
    d.L = w.dim(d.l).extent;
    d.N = w.dim(d.n).extent;
    d.K = w.dim(d.k).extent;
    return d;
}

} // namespace

std::string
attentionDataflowName(AttentionDataflow dataflow)
{
    switch (dataflow) {
      case AttentionDataflow::Layerwise:
        return "Layerwise";
      case AttentionDataflow::UniPipe:
        return "Uni-pipe";
      case AttentionDataflow::FlatMGran:
        return "FLAT-MGran";
      case AttentionDataflow::FlatBGran:
        return "FLAT-BGran";
      case AttentionDataflow::FlatHGran:
        return "FLAT-HGran";
      case AttentionDataflow::FlatRGran:
        return "FLAT-RGran";
      case AttentionDataflow::Chimera:
        return "Chimera";
      case AttentionDataflow::TileFlowDF:
        return "TileFlow";
    }
    panic("attentionDataflowName: unknown dataflow");
}

const std::vector<AttentionDataflow>&
mainAttentionDataflows()
{
    static const std::vector<AttentionDataflow> flows = {
        AttentionDataflow::Layerwise,  AttentionDataflow::UniPipe,
        AttentionDataflow::FlatHGran,  AttentionDataflow::FlatRGran,
        AttentionDataflow::Chimera,    AttentionDataflow::TileFlowDF,
    };
    return flows;
}

AttentionGrain
attentionGrainFor(AttentionDataflow dataflow, const Workload& workload,
                  const ArchSpec& spec)
{
    const AttentionDims d = attentionDims(workload);
    const int64_t cores = spec.level(spec.dramLevel()).fanout;
    constexpr int64_t kRowBlock = 64;
    constexpr int64_t kColBlock = 64;

    AttentionGrain grain;
    switch (dataflow) {
      case AttentionDataflow::Layerwise:
        grain.fused = false;
        break;
      case AttentionDataflow::UniPipe:
        grain.spatialCores = false;
        grain.pipeAll = true;
        break;
      case AttentionDataflow::FlatMGran:
        grain.spatialCores = false;
        grain.rowResident = true;
        break;
      case AttentionDataflow::FlatBGran:
        grain.tB = ceilDiv(d.B, cores);
        grain.rowResident = true;
        break;
      case AttentionDataflow::FlatHGran:
        grain.tB = ceilDiv(d.B, cores);
        grain.tH = ceilDiv(d.H, cores);
        grain.rowResident = true;
        break;
      case AttentionDataflow::FlatRGran:
        grain.tB = ceilDiv(d.B, cores);
        grain.tH = ceilDiv(d.H, cores);
        grain.tM = ceilDiv(d.M, kRowBlock);
        grain.rowResident = true;
        break;
      case AttentionDataflow::Chimera:
        grain.tB = ceilDiv(d.B, cores);
        grain.tH = ceilDiv(d.H, cores);
        grain.tM = ceilDiv(d.M, kRowBlock);
        grain.tL = ceilDiv(d.L, kColBlock);
        break;
      case AttentionDataflow::TileFlowDF:
        // All loops tiled, but with the coarsest blocks that fit —
        // the mapper's geometric-optimal pick keeps DRAM reuse close
        // to FLAT-HGran while pipelining all three stages (Sec. 7.2).
        grain.tB = ceilDiv(d.B, cores);
        grain.tH = ceilDiv(d.H, cores);
        grain.tM = ceilDiv(d.M, 4 * kRowBlock);
        grain.tL = ceilDiv(d.L, 4 * kColBlock);
        grain.pipeAll = true;
        break;
    }
    return grain;
}

AnalysisTree
buildAttentionTree(const Workload& w, const ArchSpec& spec,
                   const AttentionGrain& grain)
{
    const AttentionDims d = attentionDims(w);
    const int dram = spec.dramLevel();

    if (!grain.fused) {
        // Layerwise: one complete per-op hierarchy at a time.
        AnalysisTree tree(w);
        Node* root = tree.setRoot(Node::makeTile(dram));
        for (size_t i = 0; i < w.numOps(); ++i)
            root->addChild(buildSingleOpSubtree(w, spec, OpId(i), dram));
        return tree;
    }

    // --- Root (DRAM) level: spatial cores + the dataflow grain ---------
    int64_t budget =
        grain.spatialCores ? spec.level(dram).fanout : 1;
    const int64_t m0 = std::min<int64_t>(spec.peRows(), d.M);
    const int64_t sb = std::min(budget, ceilDiv(d.B, grain.tB));
    budget /= std::max<int64_t>(sb, 1);
    const int64_t sh = std::min(budget, ceilDiv(d.H, grain.tH));
    budget /= std::max<int64_t>(sh, 1);

    // On a Cloud-style hierarchy the row grain must leave enough row
    // blocks per step to fill the sub-cores left over after heads —
    // with abundant spatial resources, fine row grains converge to
    // the coarser ones, which is why the paper finds all tiled FLAT
    // granularities performing identically on Cloud (Sec. 7.3).
    int64_t tM = grain.tM;
    if (spec.numLevels() >= 4 && grain.spatialCores) {
        const int64_t fanout2 = spec.level(2).fanout;
        const int64_t hc_est = ceilDiv(d.H, grain.tH * sh);
        const int64_t sub_rem =
            fanout2 / std::min(fanout2, std::max<int64_t>(hc_est, 1));
        const int64_t min_m_per_step = m0 * std::max(budget, int64_t(1)) *
                                       sub_rem;
        if (min_m_per_step > 0)
            tM = std::min(tM,
                          std::max<int64_t>(1, d.M / min_m_per_step));
    }
    const int64_t sm =
        std::min(budget, ceilDiv(ceilDiv(d.M, tM), m0));

    auto root = Node::makeTile(dram);
    LoopList& root_loops = root->loops();
    appendLoop(root_loops, d.b, sb, LoopKind::Spatial);
    appendLoop(root_loops, d.h, sh, LoopKind::Spatial);
    appendLoop(root_loops, d.m, sm, LoopKind::Spatial);
    appendLoop(root_loops, d.b, grain.tB, LoopKind::Temporal);
    appendLoop(root_loops, d.h, grain.tH, LoopKind::Temporal);
    appendLoop(root_loops, d.m, tM, LoopKind::Temporal);
    appendLoop(root_loops, d.l, grain.tL, LoopKind::Temporal);

    const int64_t Bc = ceilDiv(d.B, grain.tB * sb);
    const int64_t Hc = ceilDiv(d.H, grain.tH * sh);
    const int64_t Mc = ceilDiv(d.M, tM * sm);
    const int64_t Lc = ceilDiv(d.L, grain.tL);

    // --- L0 tiles --------------------------------------------------------
    // QK and LV split the matrix array when pipelined together.
    const int64_t qk_cols =
        grain.pipeAll ? std::max<int64_t>(1, spec.peCols() / 2)
                      : spec.peCols();
    const int64_t l0_l = std::min<int64_t>(qk_cols, d.L);
    const int64_t lv_n =
        std::min<int64_t>(grain.pipeAll
                              ? std::max<int64_t>(1, spec.peCols() / 2)
                              : spec.peCols(),
                          d.N);
    const int64_t lanes =
        std::min<int64_t>(m0, spec.vectorLanes());

    const OpId qk_op = 0;
    const OpId lv_op = OpId(w.numOps() - 1);

    auto qk_tile = Node::makeTile(0);
    appendLoop(qk_tile->loops(), d.m, m0, LoopKind::Spatial);
    appendLoop(qk_tile->loops(), d.l, l0_l, LoopKind::Spatial);
    appendLoop(qk_tile->loops(), d.k, d.K, LoopKind::Temporal);
    qk_tile->addChild(Node::makeOp(qk_op));

    // The ops between QK and LV: the softmax chain, expanded or not.
    auto softmax_tile = [&](OpId op) {
        auto tile = Node::makeTile(0);
        LoopList& loops = tile->loops();
        appendLoop(loops, d.m, lanes, LoopKind::Spatial);
        if (lanes < m0)
            appendLoop(loops, d.m, ceilDiv(m0, lanes),
                       LoopKind::Temporal);
        appendLoop(loops, d.l, l0_l, LoopKind::Temporal);
        tile->addChild(Node::makeOp(op));
        return tile;
    };

    auto lv_tile = Node::makeTile(0);
    appendLoop(lv_tile->loops(), d.m, m0, LoopKind::Spatial);
    appendLoop(lv_tile->loops(), d.n, lv_n, LoopKind::Spatial);
    appendLoop(lv_tile->loops(), d.n, ceilDiv(d.N, lv_n),
               LoopKind::Temporal);
    appendLoop(lv_tile->loops(), d.l, l0_l, LoopKind::Temporal);
    lv_tile->addChild(Node::makeOp(lv_op));

    // --- Fusion scope ------------------------------------------------------
    std::unique_ptr<Node> sm_group;
    if (w.numOps() == 3) {
        sm_group = softmax_tile(1);
    } else {
        sm_group = Node::makeScope(ScopeKind::Shar);
        for (size_t i = 1; i + 1 < w.numOps(); ++i)
            sm_group->addChild(softmax_tile(OpId(i)));
    }

    std::unique_ptr<Node> fusion;
    if (grain.pipeAll) {
        fusion = Node::makeScope(ScopeKind::Pipe);
        fusion->addChild(std::move(qk_tile));
        fusion->addChild(std::move(sm_group));
        fusion->addChild(std::move(lv_tile));
    } else {
        auto qk_sm = Node::makeScope(ScopeKind::Pipe);
        qk_sm->addChild(std::move(qk_tile));
        qk_sm->addChild(std::move(sm_group));
        fusion = Node::makeScope(ScopeKind::Shar);
        fusion->addChild(std::move(qk_sm));
        fusion->addChild(std::move(lv_tile));
    }

    // --- Interior levels ----------------------------------------------------
    const int64_t m_blocks = ceilDiv(Mc, m0);
    const int64_t l_blocks = ceilDiv(Lc, l0_l);

    std::unique_ptr<Node> inner;
    if (spec.numLevels() >= 4) {
        // Cloud-style: an L2 (per-core) level distributing sub-cores.
        int64_t sub_budget = spec.level(2).fanout;
        const int64_t sh2 = std::min(sub_budget, Hc);
        sub_budget /= std::max<int64_t>(sh2, 1);
        const int64_t sm2 = std::min(sub_budget, m_blocks);
        const int64_t Hc2 = ceilDiv(Hc, sh2);
        const int64_t mb2 = ceilDiv(m_blocks, sm2);

        const int64_t f_m = std::min<int64_t>(4, mb2);
        const int64_t f_l =
            grain.rowResident ? l_blocks : std::min<int64_t>(4, l_blocks);

        auto l1 = Node::makeTile(1);
        appendLoop(l1->loops(), d.m, f_m, LoopKind::Temporal);
        appendLoop(l1->loops(), d.l, f_l, LoopKind::Temporal);
        l1->addChild(std::move(fusion));

        inner = Node::makeTile(2);
        LoopList& l2_loops = inner->loops();
        appendLoop(l2_loops, d.h, sh2, LoopKind::Spatial);
        appendLoop(l2_loops, d.m, sm2, LoopKind::Spatial);
        appendLoop(l2_loops, d.b, Bc, LoopKind::Temporal);
        appendLoop(l2_loops, d.h, Hc2, LoopKind::Temporal);
        appendLoop(l2_loops, d.m, ceilDiv(mb2, f_m), LoopKind::Temporal);
        appendLoop(l2_loops, d.l, ceilDiv(l_blocks, f_l),
                   LoopKind::Temporal);
        inner->addChild(std::move(l1));
    } else {
        // Edge-style: everything interior lives at L1.
        inner = Node::makeTile(1);
        LoopList& l1_loops = inner->loops();
        appendLoop(l1_loops, d.b, Bc, LoopKind::Temporal);
        appendLoop(l1_loops, d.h, Hc, LoopKind::Temporal);
        appendLoop(l1_loops, d.m, m_blocks, LoopKind::Temporal);
        appendLoop(l1_loops, d.l, l_blocks, LoopKind::Temporal);
        inner->addChild(std::move(fusion));
    }

    root->addChild(std::move(inner));
    AnalysisTree tree(w);
    tree.setRoot(std::move(root));
    return tree;
}

AnalysisTree
buildAttentionDataflow(const Workload& workload, const ArchSpec& spec,
                       AttentionDataflow dataflow)
{
    AttentionGrain grain = attentionGrainFor(dataflow, workload, spec);
    if (!grain.fused)
        return buildAttentionTree(workload, spec, grain);

    const AttentionDims d = attentionDims(workload);

    // Which grain knobs the dataflow is allowed to refine when the
    // staged block overflows on-chip memory (Sec. 7.5: finer tiling
    // granularity suits memory-limited scenarios).
    std::vector<std::pair<int64_t*, int64_t>> knobs;
    switch (dataflow) {
      case AttentionDataflow::UniPipe:
        knobs = {{&grain.tL, d.L}, {&grain.tM, d.M}};
        break;
      case AttentionDataflow::FlatBGran:
        knobs = {{&grain.tB, d.B}};
        break;
      case AttentionDataflow::FlatHGran:
        knobs = {{&grain.tH, d.H}, {&grain.tM, d.M}};
        break;
      case AttentionDataflow::FlatRGran:
        knobs = {{&grain.tM, d.M}, {&grain.tH, d.H}};
        break;
      case AttentionDataflow::Chimera:
      case AttentionDataflow::TileFlowDF:
        knobs = {{&grain.tL, d.L}, {&grain.tM, d.M}};
        break;
      default:
        break;
    }

    const ResourceAnalyzer resources(workload, spec);
    AnalysisTree tree = buildAttentionTree(workload, spec, grain);
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
            break; // genuinely out of memory (e.g., FLAT-MGran)
        tree = buildAttentionTree(workload, spec, grain);
    }
    return tree;
}

} // namespace tileflow
