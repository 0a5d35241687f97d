/**
 * @file
 * Dataflow-library tests: every canned dataflow must build a valid
 * tree for every registered shape on both accelerators, and the
 * paper's qualitative orderings must hold (fusion cuts DRAM traffic,
 * TileFlow's dataflow is at least as fast as FLAT, footprints order
 * HGran > RGran > TileFlow, ...).
 */

#include <gtest/gtest.h>

#include "analysis/evaluator.hpp"
#include "arch/presets.hpp"
#include "core/validate.hpp"
#include "dataflows/attention.hpp"
#include "dataflows/builder_util.hpp"
#include "dataflows/convchain.hpp"
#include "ir/shapes.hpp"

namespace tileflow {
namespace {

double
compulsoryBytes(const Workload& w)
{
    double bytes = 0.0;
    for (TensorId t : w.inputTensors())
        bytes += double(w.tensor(t).sizeBytes());
    for (TensorId t : w.outputTensors())
        bytes += double(w.tensor(t).sizeBytes());
    return bytes;
}

TEST(BuilderUtil, AppendLoopSkipsUnitExtents)
{
    LoopList loops;
    appendLoop(loops, 0, 1, LoopKind::Temporal);
    EXPECT_TRUE(loops.empty());
    appendLoop(loops, 0, 4, LoopKind::Spatial);
    ASSERT_EQ(loops.size(), 1u);
    EXPECT_EQ(loops[0].extent, 4);
}

TEST(BuilderUtil, SingleOpSubtreeIsValid)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    for (size_t i = 0; i < w.numOps(); ++i) {
        AnalysisTree tree(w);
        tree.setRoot(
            buildSingleOpSubtree(w, edge, OpId(i), edge.dramLevel()));
        // Single-op trees cover that op's dims.
        const Node* leaf = tree.root()->opLeaves()[0];
        for (DimId dim : w.op(OpId(i)).dims()) {
            EXPECT_GE(pathSpan(tree.root(), leaf, dim),
                      w.dim(dim).extent);
        }
    }
}

TEST(AttentionDataflows, NamesAndList)
{
    EXPECT_EQ(attentionDataflowName(AttentionDataflow::FlatHGran),
              "FLAT-HGran");
    EXPECT_EQ(mainAttentionDataflows().size(), 6u);
}

TEST(AttentionDataflows, FusionCutsDramTraffic)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const double layerwise =
        model
            .evaluate(buildAttentionDataflow(
                w, edge, AttentionDataflow::Layerwise))
            .dm.dramBytes();
    const double fused =
        model
            .evaluate(buildAttentionDataflow(
                w, edge, AttentionDataflow::FlatHGran))
            .dm.dramBytes();
    EXPECT_LT(fused, 0.5 * layerwise);
}

TEST(AttentionDataflows, TileFlowAtLeastAsFastAsFlat)
{
    const ArchSpec edge = makeEdgeArch();
    for (const char* name : {"Bert-S", "Bert-L", "ViT/16-B", "T5"}) {
        const Workload w = buildAttention(attentionShape(name), false);
        const Evaluator model(w, edge);
        const double flat =
            model
                .evaluate(buildAttentionDataflow(
                    w, edge, AttentionDataflow::FlatHGran))
                .cycles;
        const double tf =
            model
                .evaluate(buildAttentionDataflow(
                    w, edge, AttentionDataflow::TileFlowDF))
                .cycles;
        EXPECT_LE(tf, flat) << name;
    }
}

TEST(AttentionDataflows, FootprintOrderingHGranOverRGranOverTileFlow)
{
    // The Sec. 7.3 finding: coarser staging grains need more L1.
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const auto fp = [&](AttentionDataflow df) {
        return model.evaluate(buildAttentionDataflow(w, edge, df))
            .resources.footprintBytes[1];
    };
    const int64_t hgran = fp(AttentionDataflow::FlatHGran);
    const int64_t rgran = fp(AttentionDataflow::FlatRGran);
    const int64_t chim = fp(AttentionDataflow::Chimera);
    EXPECT_GT(hgran, rgran);
    EXPECT_GT(rgran, chim);
}

TEST(AttentionDataflows, UniPipeUsesOneCore)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const EvalResult r = model.evaluate(buildAttentionDataflow(
        w, edge, AttentionDataflow::UniPipe));
    ASSERT_TRUE(r.valid);
    EXPECT_EQ(r.resources.subCoresUsed, 1);
    EXPECT_LT(r.utilization, 0.3);
}

TEST(AttentionDataflows, DramNeverBelowCompulsory)
{
    const ArchSpec edge = makeEdgeArch();
    const Workload w = buildAttention(attentionShape("Bert-B"), false);
    const Evaluator model(w, edge);
    for (AttentionDataflow df : mainAttentionDataflows()) {
        const EvalResult r =
            model.evaluate(buildAttentionDataflow(w, edge, df));
        if (!r.valid)
            continue;
        EXPECT_GE(r.dm.dramBytes(), compulsoryBytes(w))
            << attentionDataflowName(df);
    }
}

TEST(AttentionDataflows, MapperGrainRoundTrip)
{
    // buildAttentionTree must honour explicit grains (mapper contract).
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    AttentionGrain grain;
    grain.tH = 2;
    grain.tM = 4;
    grain.tL = 2;
    const AnalysisTree tree = buildAttentionTree(w, edge, grain);
    checkTree(tree, &edge);
    const Node* root = tree.root();
    EXPECT_EQ(root->loopExtent(w.dimId("h"), LoopKind::Temporal), 2);
    EXPECT_EQ(root->loopExtent(w.dimId("m"), LoopKind::Temporal), 4);
    EXPECT_EQ(root->loopExtent(w.dimId("l"), LoopKind::Temporal), 2);
}

TEST(ConvDataflows, NamesAndList)
{
    EXPECT_EQ(convChainDataflowName(ConvChainDataflow::FusedLayer),
              "Fused-Layer");
    EXPECT_EQ(mainConvChainDataflows().size(), 4u);
}

TEST(ConvDataflows, FusionCutsDramTraffic)
{
    const Workload w = buildConvChain(convChainShape("CC1"));
    const ArchSpec cloud = makeCloudArch();
    const Evaluator model(w, cloud);
    const double layerwise =
        model
            .evaluate(buildConvChainDataflow(
                w, cloud, ConvChainDataflow::Layerwise))
            .dm.dramBytes();
    const double fused =
        model
            .evaluate(buildConvChainDataflow(
                w, cloud, ConvChainDataflow::FusedLayer))
            .dm.dramBytes();
    // Paper: Fused-Layer removes ~73% of DRAM traffic.
    EXPECT_LT(fused, 0.5 * layerwise);
}

TEST(ConvDataflows, IntermediateStaysOnChipWhenFused)
{
    const ConvChainShape& shape = convChainShape("CC3");
    const Workload w = buildConvChain(shape);
    const ArchSpec cloud = makeCloudArch();
    const Evaluator model(w, cloud);
    const EvalResult r = model.evaluate(buildConvChainDataflow(
        w, cloud, ConvChainDataflow::TileFlowDF));
    ASSERT_TRUE(r.valid);
    // Fused DRAM traffic must be below even one Act round-trip plus
    // the compulsory tensors.
    const double act =
        double(w.tensor(w.tensorId("Act")).sizeBytes());
    EXPECT_LT(r.dm.dramBytes(), compulsoryBytes(w) + act);
}

/** Every (shape, dataflow, arch) combination builds a valid tree. */
struct DataflowCase
{
    std::string shape;
    AttentionDataflow dataflow;
    bool cloud;
};

class AttentionDataflowMatrix
    : public ::testing::TestWithParam<DataflowCase>
{
};

TEST_P(AttentionDataflowMatrix, BuildsValidEvaluableTree)
{
    const DataflowCase& c = GetParam();
    const Workload w = buildAttention(attentionShape(c.shape), false);
    const ArchSpec spec = c.cloud ? makeCloudArch() : makeEdgeArch();
    const AnalysisTree tree =
        buildAttentionDataflow(w, spec, c.dataflow);

    for (const std::string& problem : validateTree(tree, &spec)) {
        EXPECT_EQ(problem.find("warn:"), 0u)
            << attentionDataflowName(c.dataflow) << ": " << problem;
    }

    EvalOptions opts;
    opts.enforceMemory = false; // MGran-style flows may overflow
    const EvalResult r = Evaluator(w, spec, opts).evaluate(tree);
    ASSERT_TRUE(r.valid);
    EXPECT_GT(r.cycles, 0.0);
    EXPECT_GT(r.energyPJ, 0.0);
    EXPECT_GE(r.dm.dramBytes(), compulsoryBytes(w));
    EXPECT_GT(r.utilization, 0.0);
    EXPECT_LE(r.utilization, 1.0 + 1e-9);
}

std::vector<DataflowCase>
attentionMatrix()
{
    std::vector<DataflowCase> cases;
    for (const char* shape : {"Bert-S", "ViT/16-B", "T5"}) {
        for (AttentionDataflow df : mainAttentionDataflows()) {
            cases.push_back({shape, df, false});
            cases.push_back({shape, df, true});
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    ShapesTimesFlows, AttentionDataflowMatrix,
    ::testing::ValuesIn(attentionMatrix()),
    [](const ::testing::TestParamInfo<DataflowCase>& info) {
        std::string name = info.param.shape + "_" +
                           attentionDataflowName(info.param.dataflow) +
                           (info.param.cloud ? "_Cloud" : "_Edge");
        for (char& ch : name) {
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        }
        return name;
    });

/** All conv chains x dataflows on Cloud. */
struct ConvCase
{
    std::string shape;
    ConvChainDataflow dataflow;
};

class ConvDataflowMatrix : public ::testing::TestWithParam<ConvCase>
{
};

TEST_P(ConvDataflowMatrix, BuildsValidEvaluableTree)
{
    const ConvCase& c = GetParam();
    const Workload w = buildConvChain(convChainShape(c.shape));
    const ArchSpec cloud = makeCloudArch();
    const AnalysisTree tree =
        buildConvChainDataflow(w, cloud, c.dataflow);
    for (const std::string& problem : validateTree(tree, &cloud)) {
        EXPECT_EQ(problem.find("warn:"), 0u)
            << convChainDataflowName(c.dataflow) << ": " << problem;
    }
    const EvalResult r = Evaluator(w, cloud).evaluate(tree);
    ASSERT_TRUE(r.valid);
    EXPECT_GT(r.cycles, 0.0);
    EXPECT_GE(r.dm.dramBytes(), 0.9 * compulsoryBytes(w));
}

std::vector<ConvCase>
convMatrix()
{
    std::vector<ConvCase> cases;
    for (const auto& shape : convChainShapes()) {
        for (ConvChainDataflow df : mainConvChainDataflows())
            cases.push_back({shape.name, df});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    ChainsTimesFlows, ConvDataflowMatrix,
    ::testing::ValuesIn(convMatrix()),
    [](const ::testing::TestParamInfo<ConvCase>& info) {
        std::string name =
            info.param.shape + "_" +
            convChainDataflowName(info.param.dataflow);
        for (char& ch : name) {
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        }
        return name;
    });

} // namespace
} // namespace tileflow
