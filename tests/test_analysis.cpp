/**
 * @file
 * Analysis-layer tests beyond data movement: slice geometry, resource
 * usage (Sec. 5.2 recursions), latency (Sec. 5.3), energy and the
 * Evaluator facade.
 */

#include <algorithm>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "analysis/evaluator.hpp"
#include "analysis/slice.hpp"
#include "arch/presets.hpp"
#include "core/notation.hpp"
#include "ir/builders.hpp"
#include "oracle/fuzz.hpp"

namespace tileflow {
namespace {

AnalysisTree
matmulTree(const Workload& w, const std::string& text)
{
    return parseNotation(w, text);
}

TEST(Slice, StepSliceFollowsTemporalIndices)
{
    const Workload w = buildMatmul("mm", 64, 64, 64);
    const AnalysisTree tree = matmulTree(w, R"(
        tile @L1 [i:t4, j:t4] {
          tile @L0 [i:s16, j:s16, k:t64] { op matmul }
        }
    )");
    const StepGeometry geom(w, tree.root());
    const Node* leaf = tree.root()->opLeaves()[0];
    const auto& a_access = w.op(0).accesses()[0]; // A[i,k]

    const HyperRect s00 = geom.slice(leaf, a_access, {0, 0});
    EXPECT_EQ(s00.begin(0), 0);
    EXPECT_EQ(s00.extent(0), 16);
    EXPECT_EQ(s00.extent(1), 64); // full k below

    const HyperRect s20 = geom.slice(leaf, a_access, {2, 0});
    EXPECT_EQ(s20.begin(0), 32); // i advanced by 2 units of 16

    // j does not move A.
    const HyperRect s01 = geom.slice(leaf, a_access, {0, 3});
    EXPECT_TRUE(s01 == s00);
}

TEST(Slice, UnitsAndAdvances)
{
    const Workload w = buildMatmul("mm", 64, 64, 64);
    const AnalysisTree tree = matmulTree(w, R"(
        tile @L1 [i:t2, j:t4] {
          tile @L0 [i:s16, i:t2, j:s16, k:t64] { op matmul }
        }
    )");
    const StepGeometry geom(w, tree.root());
    EXPECT_EQ(geom.unit(w.dimId("i")), 32); // 16 spatial x 2 temporal
    EXPECT_EQ(geom.unit(w.dimId("j")), 16);
    // advances: i outer (2), j inner (4).
    EXPECT_EQ(geom.advances(0), 1);     // (2-1) * 1
    EXPECT_EQ(geom.advances(1), 3 * 2); // (4-1) * 2
}

/**
 * The one-walk spans behind StepGeometry::slice and unit() against the
 * per-dim pathSpan / subtreeSpan reference, for every Tile node of
 * `tree`, with and without the node's spatial loops. Slices are
 * compared too unless the spans saturate (projecting those would
 * overflow). Returns the number of (node, leaf) pairs checked.
 */
int
expectSpansMatchReference(const Workload& w, const AnalysisTree& tree,
                          bool compare_slices)
{
    const size_t num_dims = w.dims().size();
    int checked = 0;
    std::vector<const Node*> stack{tree.root()};
    while (!stack.empty()) {
        const Node* node = stack.back();
        stack.pop_back();
        for (const auto& child : node->children())
            stack.push_back(child.get());
        for (const Node* leaf : node->opLeaves()) {
            const std::vector<int64_t> spans =
                pathSpans(node, leaf, num_dims);
            for (size_t d = 0; d < num_dims; ++d)
                EXPECT_EQ(spans[d], pathSpan(node, leaf, DimId(d)));
        }
        if (!node->isTile())
            continue;

        for (bool include_spatial : {true, false}) {
            const StepGeometry geom(w, node, include_spatial);
            for (size_t d = 0; d < num_dims; ++d) {
                int64_t spatial = 1;
                for (const Loop& loop : node->loops()) {
                    if (loop.isSpatial() && loop.dim == DimId(d))
                        spatial *= loop.extent;
                }
                int64_t child_span = 1;
                for (const auto& child : node->children())
                    child_span = std::max(
                        child_span, subtreeSpan(child.get(), DimId(d)));
                EXPECT_EQ(geom.unit(DimId(d)), spatial * child_span);
            }
            for (const Node* leaf : node->opLeaves()) {
                std::vector<int64_t> ref(num_dims, 1);
                for (size_t d = 0; d < num_dims; ++d) {
                    int64_t below = pathSpan(node, leaf, DimId(d));
                    int64_t spatial = 1;
                    for (const Loop& loop : node->loops()) {
                        if (loop.dim != DimId(d))
                            continue;
                        below /= loop.extent;
                        if (loop.isSpatial() && include_spatial)
                            spatial *= loop.extent;
                    }
                    ref[d] = below * spatial;
                }
                EXPECT_EQ(geom.leafSpan(leaf), ref);
                ++checked;
                if (!compare_slices)
                    continue;
                const Operator& op = w.op(leaf->op());
                const std::vector<int64_t> zero_idx(
                    geom.temporalLoops().size(), 0);
                const std::vector<int64_t> zero_base(num_dims, 0);
                for (const auto& access : op.accesses()) {
                    EXPECT_TRUE(geom.slice(leaf, access, zero_idx) ==
                                op.sliceOf(access, zero_base, ref));
                }
            }
        }
    }
    return checked;
}

TEST(Slice, OneWalkSpansMatchPathSpanReference)
{
    std::set<int> families;
    int checked = 0;
    int saturated = 0;
    for (uint64_t index = 0; index < 28; ++index) {
        const FuzzCase fc = makeFuzzCase(0x5BA4u, index);
        families.insert(fc.kind);
        checked += expectSpansMatchReference(*fc.workload, *fc.tree,
                                             /*compare_slices=*/true);

        // Same tree with every loop temporal and 2^40 long: any two
        // loops of one dim on a path saturate mulSat, and the spans
        // must saturate (then divide) exactly as pathSpan does.
        AnalysisTree huge = fc.tree->clone();
        std::vector<Node*> nodes{huge.root()};
        while (!nodes.empty()) {
            Node* node = nodes.back();
            nodes.pop_back();
            for (const auto& child : node->children())
                nodes.push_back(child.get());
            if (!node->isTile())
                continue;
            for (Loop& loop : node->loops()) {
                loop.kind = LoopKind::Temporal;
                loop.extent = int64_t(1) << 40;
            }
        }
        const std::vector<const Node*> leaves = huge.root()->opLeaves();
        for (size_t d = 0; d < fc.workload->dims().size(); ++d) {
            for (const Node* leaf : leaves) {
                saturated += pathSpan(huge.root(), leaf, DimId(d)) ==
                             std::numeric_limits<int64_t>::max();
            }
        }
        checked += expectSpansMatchReference(*fc.workload, huge,
                                             /*compare_slices=*/false);
    }
    EXPECT_EQ(families.size(), 7u);
    EXPECT_GT(checked, 100);
    EXPECT_GT(saturated, 0) << "no span saturated";
}

TEST(Slice, AdvancesForSkipsIrrelevantLoops)
{
    const Workload w = buildMatmul("mm", 64, 64, 64);
    const AnalysisTree tree = matmulTree(w, R"(
        tile @L1 [i:t2, j:t4] {
          tile @L0 [i:s16, i:t2, j:s16, k:t64] { op matmul }
        }
    )");
    const StepGeometry geom(w, tree.root());
    const Operator& op = w.op(0);
    const auto& a_access = op.accesses()[0]; // A[i,k]: j irrelevant
    EXPECT_EQ(geom.advancesFor(1, op, a_access), 0);
    // For i boundaries A is relevant; only relevant outers multiply.
    EXPECT_EQ(geom.advancesFor(0, op, a_access), 1);
    // The output C[i,j] sees j boundaries.
    const auto& c_access = op.accesses()[2];
    EXPECT_GT(geom.advancesFor(1, op, c_access), 0);
}

TEST(Resource, LeafPEUsageFromSpatialLoops)
{
    const Workload w = buildMatmul("mm", 256, 256, 256);
    const ArchSpec spec = makeValidationArch();
    const AnalysisTree tree = matmulTree(w, R"(
        tile @L2 [i:t16, j:t16, k:t16] {
          tile @L0 [i:s16, j:s16, k:t16] { op matmul }
        }
    )");
    const ResourceAnalyzer analyzer(w, spec);
    const ResourceResult r = analyzer.analyze(tree);
    EXPECT_EQ(r.matrixPEs, 256);
    EXPECT_EQ(r.vectorLanes, 0);
    EXPECT_TRUE(r.fitsCompute);
}

TEST(Resource, PipeSumsSeqMaxes)
{
    const Workload w = buildMatmulExp("me", 256, 256, 256);
    const ArchSpec spec = makeValidationArch();
    const char* tmpl = R"(
        tile @L2 [i:t16, j:t16, k:t4] {
          %s {
            tile @L0 [i:s16, j:s16, k:t4] { op matmul }
            tile @L0 [i:s16, j:t16]       { op exp }
          }
        }
    )";
    for (const char* kind : {"seq", "pipe"}) {
        char text[512];
        std::snprintf(text, sizeof(text), tmpl, kind);
        const ResourceAnalyzer analyzer(w, spec);
        const ResourceResult r =
            analyzer.analyze(parseNotation(w, text));
        // Matrix and vector arrays are distinct resources in both
        // cases; Seq maxes, Pipe sums (here one op per kind, so the
        // totals coincide but both must be tracked).
        EXPECT_EQ(r.matrixPEs, 256);
        EXPECT_EQ(r.vectorLanes, 16);
    }
}

TEST(Resource, OversubscribedArrayFlagged)
{
    const Workload w = buildMatmul("mm", 256, 256, 256);
    const ArchSpec spec = makeValidationArch(); // 16x16 array
    const AnalysisTree tree = matmulTree(w, R"(
        tile @L2 [i:t8, j:t8, k:t16] {
          tile @L0 [i:s32, j:s32, k:t16] { op matmul }
        }
    )");
    const ResourceResult r = ResourceAnalyzer(w, spec).analyze(tree);
    EXPECT_FALSE(r.fitsCompute);
    EXPECT_FALSE(r.violations.empty());
}

TEST(Resource, SpatialFanoutBound)
{
    const Workload w = buildMatmul("mm", 256, 256, 256);
    const ArchSpec spec = makeValidationArch(); // 4 cores
    const AnalysisTree tree = matmulTree(w, R"(
        tile @L2 [i:s8, i:t2, j:t16, k:t16] {
          tile @L0 [i:s16, j:s16, k:t16] { op matmul }
        }
    )");
    const ResourceResult r = ResourceAnalyzer(w, spec).analyze(tree);
    EXPECT_FALSE(r.fitsCompute);
}

TEST(Resource, FootprintChargedToChildLevel)
{
    const Workload w = buildMatmul("mm", 256, 256, 256);
    const ArchSpec spec = makeValidationArch();
    const AnalysisTree tree = matmulTree(w, R"(
        tile @L2 [i:t4, j:t4] {
          tile @L1 [i:t4, j:t4, k:t16] {
            tile @L0 [i:s16, j:s16, k:t16] { op matmul }
          }
        }
    )");
    const ResourceResult r = ResourceAnalyzer(w, spec).analyze(tree);
    // One L2 step stages 64x64 blocks of A(64x256), B(256x64), C(64x64)
    // in L1: (16384 + 16384 + 4096) elems * 2B.
    EXPECT_EQ(r.footprintBytes[1], (16384 + 16384 + 4096) * 2);
    EXPECT_TRUE(r.fitsMemory);
}

TEST(Resource, SeqFootprintTakesMax)
{
    const Workload w = buildMatmulExp("me", 64, 64, 64);
    const ArchSpec spec = makeValidationArch();
    const char* tmpl = R"(
        tile @L1 [i:t4] {
          %s {
            tile @L0 [i:s16, j:t64, k:t64] { op matmul }
            tile @L0 [i:s16, j:t64]        { op exp }
          }
        }
    )";
    char seq_text[512], shar_text[512];
    std::snprintf(seq_text, sizeof(seq_text), tmpl, "seq");
    std::snprintf(shar_text, sizeof(shar_text), tmpl, "shar");
    const ResourceAnalyzer analyzer(w, spec);
    const auto seq = analyzer.analyze(parseNotation(w, seq_text));
    const auto shar = analyzer.analyze(parseNotation(w, shar_text));
    EXPECT_LT(seq.footprintBytes[0], shar.footprintBytes[0]);
}

TEST(Resource, FusedLeafTileUsesBothArrays)
{
    // One L0 tile over a matrix and a vector op occupies both arrays,
    // whichever op comes first.
    const Workload w = buildMatmulExp("me", 256, 256, 256);
    const ArchSpec spec = makeValidationArch();
    for (const char* ops : {"op matmul op exp", "op exp op matmul"}) {
        char text[512];
        std::snprintf(text, sizeof(text), R"(
            tile @L2 [i:t16, j:t16, k:t256] {
              tile @L0 [i:s16, j:s16] { shar { %s } }
            }
        )", ops);
        const ResourceResult r =
            ResourceAnalyzer(w, spec).analyze(parseNotation(w, text));
        EXPECT_EQ(r.matrixPEs, 256) << ops;
        EXPECT_EQ(r.vectorLanes, 256) << ops;
    }
}

TEST(Resource, StepFootprintStagesWhatCrossesAFusedChild)
{
    // a: Y = f(X); b: Z = g(Y); c: W = h(Z). The second child fuses b
    // and c, so Y (produced by a sibling) and W (a terminal output)
    // cross its boundary and Z stays inside it; the first child stages
    // X and Y. Under Shar the children's bytes add up.
    Workload w("chain3");
    const DimId i = w.addDim("i", 64);
    std::vector<TensorId> t;
    for (const char* name : {"X", "Y", "Z", "W"})
        t.push_back(w.addTensor(Tensor{name, {64}}));
    auto access = [&](TensorId id, bool is_write) {
        return TensorAccess{id, is_write, false, {{AccessTerm{i, 1}}}};
    };
    for (size_t k = 0; k < 3; ++k) {
        Operator op(std::string(1, char('a' + k)), ComputeKind::Vector);
        op.addDim(i, false);
        op.addAccess(access(t[k], false));
        op.addAccess(access(t[k + 1], true));
        w.addOp(std::move(op));
    }
    const ArchSpec spec = makeValidationArch();
    const AnalysisTree tree = parseNotation(w, R"(
        tile @L2 [i:t4] {
          shar {
            tile @L1 [] { tile @L0 [i:s16] { op a } }
            tile @L1 [] {
              shar {
                tile @L0 [i:s16] { op b }
                tile @L0 [i:s16] { op c }
              }
            }
          }
        }
    )");
    const int64_t bytes = dataTypeBytes(w.tensor(t[0]).dtype);
    EXPECT_EQ(ResourceAnalyzer(w, spec).tileStepFootprint(tree.root()),
              (16 + 16 + 16 + 16) * bytes);
}

TEST(Latency, ComputeBoundMatmul)
{
    const Workload w = buildMatmul("mm", 256, 256, 256);
    const ArchSpec spec = makeValidationArch();
    const Evaluator model(w, spec);
    const EvalResult r = model.evaluate(matmulTree(w, R"(
        tile @L2 [i:s4, i:t1, j:t4, k:t4] {
          tile @L1 [i:t4, j:t4, k:t4] {
            tile @L0 [i:s16, j:s16, k:t16] { op matmul }
          }
        }
    )"));
    ASSERT_TRUE(r.valid);
    // 16.7M MACs over 4 cores x 256 PEs = 16384 compute-bound cycles.
    EXPECT_DOUBLE_EQ(r.latency.computeCycles, 16384.0);
    EXPECT_GE(r.cycles, r.latency.computeCycles);
}

TEST(Latency, BandwidthBoundWhenDramStarved)
{
    const Workload w = buildMatmul("mm", 256, 256, 256);
    ArchSpec spec = makeValidationArch();
    spec.levels()[2].bandwidthGBps = 0.1; // cripple DRAM
    const Evaluator model(w, spec);
    const EvalResult r = model.evaluate(matmulTree(w, R"(
        tile @L2 [i:s4, i:t1, j:t4, k:t4] {
          tile @L1 [i:t4, j:t4, k:t4] {
            tile @L0 [i:s16, j:s16, k:t16] { op matmul }
          }
        }
    )"));
    ASSERT_TRUE(r.valid);
    EXPECT_GT(r.cycles, 10.0 * r.latency.computeCycles);
    EXPECT_GT(r.latency.slowdown(2), 1.0);
}

TEST(Latency, PipeOverlapsSharSerializes)
{
    const Workload w = buildMatmulExp("me", 256, 256, 256);
    const ArchSpec spec = makeValidationArch();
    EvalOptions opts;
    opts.enforceCompute = false; // pipe oversubscribes the array here
    opts.enforceMemory = false;  // and the register tile is borderline
    const Evaluator model(w, spec, opts);
    const char* tmpl = R"(
        tile @L2 [i:s4, i:t4, j:t16] {
          %s {
            tile @L0 [i:s16, j:s16, k:t256] { op matmul }
            tile @L0 [i:s16, j:t16]         { op exp }
          }
        }
    )";
    char seq_text[512], pipe_text[512];
    std::snprintf(seq_text, sizeof(seq_text), tmpl, "shar");
    std::snprintf(pipe_text, sizeof(pipe_text), tmpl, "pipe");
    const double seq_cycles =
        model.evaluate(parseNotation(w, seq_text)).cycles;
    const double pipe_cycles =
        model.evaluate(parseNotation(w, pipe_text)).cycles;
    EXPECT_LT(pipe_cycles, seq_cycles);
}

TEST(Energy, BreakdownSumsToTotal)
{
    const Workload w = buildMatmul("mm", 256, 256, 256);
    const ArchSpec spec = makeValidationArch();
    const Evaluator model(w, spec);
    const EvalResult r = model.evaluate(matmulTree(w, R"(
        tile @L2 [i:s4, i:t1, j:t4, k:t4] {
          tile @L1 [i:t4, j:t4, k:t4] {
            tile @L0 [i:s16, j:s16, k:t16] { op matmul }
          }
        }
    )"));
    ASSERT_TRUE(r.valid);
    double sum = r.energy.macPJ;
    for (double pj : r.energy.levelPJ)
        sum += pj;
    EXPECT_DOUBLE_EQ(sum, r.energy.totalPJ());
    EXPECT_GT(r.energy.macPJ, 0.0);
    EXPECT_GT(r.energy.levelPJ.back(), 0.0); // DRAM charged
    double shares = r.energy.macShare();
    for (int i = 0; i < spec.numLevels(); ++i)
        shares += r.energy.share(i);
    EXPECT_NEAR(shares, 1.0, 1e-12);
}

TEST(Evaluator, InvalidTreeReportedNotThrown)
{
    const Workload w = buildMatmul("mm", 256, 256, 256);
    const ArchSpec spec = makeValidationArch();
    const Evaluator model(w, spec);
    const EvalResult r = model.evaluate(matmulTree(w, R"(
        tile @L2 [i:t4, j:t16, k:t16] {
          tile @L0 [i:s16, j:s16, k:t16] { op matmul }
        }
    )"));
    EXPECT_FALSE(r.valid);
    EXPECT_FALSE(r.problems.empty());
}

TEST(Evaluator, MemoryEnforcementToggle)
{
    // A mapping whose L1 staging exceeds 384KB: 256x256 blocks of all
    // three matmul tensors.
    const Workload w = buildMatmul("mm", 1024, 1024, 1024);
    const ArchSpec spec = makeValidationArch();
    const char* text = R"(
        tile @L2 [i:t4, j:t4] {
          tile @L1 [i:t16, j:t16, k:t64] {
            tile @L0 [i:s16, j:s16, k:t16] { op matmul }
          }
        }
    )";
    EvalOptions strict;
    const EvalResult rejected =
        Evaluator(w, spec, strict).evaluate(parseNotation(w, text));
    EXPECT_FALSE(rejected.valid);

    EvalOptions relaxed;
    relaxed.enforceMemory = false;
    const EvalResult accepted =
        Evaluator(w, spec, relaxed).evaluate(parseNotation(w, text));
    EXPECT_TRUE(accepted.valid);
}

TEST(Evaluator, RuntimeMsUsesFrequency)
{
    const Workload w = buildMatmul("mm", 256, 256, 256);
    const ArchSpec spec = makeValidationArch(); // 0.4 GHz
    const Evaluator model(w, spec);
    const EvalResult r = model.evaluate(matmulTree(w, R"(
        tile @L2 [i:s4, i:t1, j:t4, k:t4] {
          tile @L1 [i:t4, j:t4, k:t4] {
            tile @L0 [i:s16, j:s16, k:t16] { op matmul }
          }
        }
    )"));
    ASSERT_TRUE(r.valid);
    EXPECT_NEAR(r.runtimeMs(spec), r.cycles / 0.4e6, 1e-9);
}

} // namespace
} // namespace tileflow
