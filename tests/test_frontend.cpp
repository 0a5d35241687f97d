/**
 * @file
 * Spec front-end tests: the example arch/workload/mapping files load
 * end to end, malformed corpus specs yield all of their independent
 * errors in one pass with golden-file rendered reports, and the
 * adversarial-input resource caps degrade into diagnostics instead of
 * crashes or overflow.
 *
 * Set TILEFLOW_UPDATE_GOLDENS=1 to rewrite the .expected files after
 * an intentional diagnostics change.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "arch/presets.hpp"
#include "common/logging.hpp"
#include "core/notation.hpp"
#include "core/validate.hpp"
#include "frontend/loader.hpp"

namespace tileflow {
namespace {

std::string
specsDir()
{
    return TILEFLOW_SPECS_DIR;
}

std::string
corpusDir()
{
    return TILEFLOW_CORPUS_DIR;
}

std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing file: " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

// ---------------------------------------------------------------- //
// Example specs load end to end.                                   //
// ---------------------------------------------------------------- //

TEST(Frontend, TpuLikeArchMatchesEdgePreset)
{
    DiagnosticEngine diags;
    auto spec = loadArchSpec(specsDir() + "/tpu_like.arch", diags);
    ASSERT_TRUE(spec.has_value()) << diags.render("", "tpu_like.arch");
    EXPECT_FALSE(diags.hasErrors());

    const ArchSpec preset = makeEdgeArch();
    EXPECT_EQ(spec->name(), preset.name());
    EXPECT_EQ(spec->numLevels(), preset.numLevels());
    EXPECT_DOUBLE_EQ(spec->frequencyGHz(), preset.frequencyGHz());
    EXPECT_EQ(spec->wordBytes(), preset.wordBytes());
    EXPECT_EQ(spec->peRows(), preset.peRows());
    EXPECT_EQ(spec->totalSubCores(), preset.totalSubCores());
    for (int l = 0; l < spec->numLevels(); ++l) {
        EXPECT_EQ(spec->level(l).capacityBytes,
                  preset.level(l).capacityBytes);
        EXPECT_EQ(spec->level(l).instances, preset.level(l).instances);
        EXPECT_DOUBLE_EQ(spec->level(l).bandwidthGBps,
                         preset.level(l).bandwidthGBps);
        // applyEnergyModel ran on both.
        EXPECT_GT(spec->level(l).readEnergyPJ, 0.0);
        EXPECT_DOUBLE_EQ(spec->level(l).readEnergyPJ,
                         preset.level(l).readEnergyPJ);
    }
}

TEST(Frontend, Fig4WorkloadAndMappingValidate)
{
    DiagnosticEngine diags;
    auto workload = loadWorkloadSpec(specsDir() + "/fig4.wl", diags);
    ASSERT_TRUE(workload.has_value()) << diags.render("", "fig4.wl");
    EXPECT_EQ(workload->dims().size(), 4u);
    EXPECT_EQ(workload->tensors().size(), 6u);
    EXPECT_EQ(workload->numOps(), 3u);
    // A and B are intermediates of the fused chain.
    EXPECT_TRUE(workload->isIntermediate(workload->tensorId("A")));
    EXPECT_TRUE(workload->isIntermediate(workload->tensorId("B")));

    auto tree = loadMapping(*workload, specsDir() + "/fig4.map", diags);
    ASSERT_TRUE(tree.has_value()) << diags.render("", "fig4.map");
    EXPECT_NO_THROW(checkTree(*tree));
}

TEST(Frontend, AttentionAndConvChainWorkloadsLoad)
{
    {
        DiagnosticEngine diags;
        auto w = loadWorkloadSpec(specsDir() + "/attention.wl", diags);
        ASSERT_TRUE(w.has_value()) << diags.render("", "attention.wl");
        EXPECT_EQ(w->numOps(), 3u);
        EXPECT_DOUBLE_EQ(w->op(w->opId("softmax")).opsPerPoint(), 4.0);
    }
    {
        DiagnosticEngine diags;
        auto w = loadWorkloadSpec(specsDir() + "/conv_chain.wl", diags);
        ASSERT_TRUE(w.has_value()) << diags.render("", "conv_chain.wl");
        EXPECT_EQ(w->numOps(), 2u);
        // Halo shape expression: h1 + r - 1 = 34 + 3 - 1.
        const Tensor& im = w->tensor(w->tensorId("Im"));
        EXPECT_EQ(im.shape[0], 36);
        // conv2 reads conv1's output through a halo projection.
        EXPECT_TRUE(w->isIntermediate(w->tensorId("Act")));
    }
}

TEST(Frontend, MissingFileIsADiagnosticNotACrash)
{
    DiagnosticEngine diags;
    auto spec = loadArchSpec(specsDir() + "/does_not_exist.arch", diags);
    EXPECT_FALSE(spec.has_value());
    ASSERT_EQ(diags.diagnostics().size(), 1u);
    EXPECT_EQ(diags.diagnostics()[0].code, "F601");
}

TEST(Frontend, SpecFileReadStopsOneByteAfterTheInputLimit)
{
    // The read spans several chunks; a file at the limit loads whole,
    // one byte over it is F603.
    const std::string path = testing::TempDir() + "limit.wl";
    ParseLimits limits;
    limits.maxInputBytes = 10000;
    for (size_t size : {size_t(10000), size_t(10001), size_t(50000)}) {
        SCOPED_TRACE(size);
        std::ofstream(path, std::ios::binary | std::ios::trunc)
            << std::string(size, '#');
        DiagnosticEngine diags;
        const auto text = readSpecFile(path, diags, limits);
        if (size <= limits.maxInputBytes) {
            ASSERT_TRUE(text.has_value());
            EXPECT_EQ(*text, std::string(size, '#'));
            EXPECT_TRUE(diags.diagnostics().empty());
        } else {
            EXPECT_FALSE(text.has_value());
            ASSERT_EQ(diags.diagnostics().size(), 1u);
            EXPECT_EQ(diags.diagnostics()[0].code, "F603");
        }
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------- //
// Malformed corpus: all independent errors in one pass, golden      //
// rendered reports.                                                 //
// ---------------------------------------------------------------- //

void
checkGolden(const std::string& name, const std::string& report)
{
    const std::string path = corpusDir() + "/malformed/" + name;
    if (std::getenv("TILEFLOW_UPDATE_GOLDENS")) {
        std::ofstream(path, std::ios::binary) << report;
        return;
    }
    EXPECT_EQ(report, slurp(path)) << "golden mismatch: " << path
                                   << "\n(set TILEFLOW_UPDATE_GOLDENS=1 "
                                      "to regenerate)";
}

TEST(FrontendCorpus, MalformedMappingReportsAllThreeErrors)
{
    DiagnosticEngine wl_diags;
    auto workload =
        loadWorkloadSpec(specsDir() + "/fig4.wl", wl_diags);
    ASSERT_TRUE(workload.has_value());

    const std::string text = slurp(corpusDir() + "/malformed/bad.map");
    DiagnosticEngine diags;
    auto tree = parseNotationDiag(*workload, text, diags);
    EXPECT_FALSE(tree.has_value());
    EXPECT_EQ(diags.errorCount(), 3u);
    for (const Diagnostic& d : diags.diagnostics())
        EXPECT_TRUE(d.loc.valid()) << d.message;
    checkGolden("bad.map.expected", diags.render(text, "bad.map"));
}

TEST(FrontendCorpus, MalformedArchReportsAllThreeErrors)
{
    const std::string text = slurp(corpusDir() + "/malformed/bad.arch");
    DiagnosticEngine diags;
    auto spec = parseArchSpec(text, diags);
    EXPECT_FALSE(spec.has_value());
    EXPECT_EQ(diags.errorCount(), 3u);
    for (const Diagnostic& d : diags.diagnostics())
        EXPECT_TRUE(d.loc.valid()) << d.message;
    checkGolden("bad.arch.expected", diags.render(text, "bad.arch"));
}

TEST(FrontendCorpus, MalformedWorkloadReportsAllThreeErrors)
{
    const std::string text = slurp(corpusDir() + "/malformed/bad.wl");
    DiagnosticEngine diags;
    auto workload = parseWorkloadSpec(text, diags);
    EXPECT_FALSE(workload.has_value());
    EXPECT_EQ(diags.errorCount(), 3u);
    for (const Diagnostic& d : diags.diagnostics())
        EXPECT_TRUE(d.loc.valid()) << d.message;
    checkGolden("bad.wl.expected", diags.render(text, "bad.wl"));
}

// ---------------------------------------------------------------- //
// Adversarial inputs: resource caps degrade into diagnostics.       //
// ---------------------------------------------------------------- //

Workload
tinyWorkload()
{
    Workload w("tiny");
    const DimId i = w.addDim("i", 8);
    const TensorId t = w.addTensor(Tensor{"T", {8}, {}});
    Operator op("A", ComputeKind::Vector);
    op.addDim(i, false);
    TensorAccess access;
    access.tensor = t;
    access.isWrite = true;
    access.projection = {{AccessTerm{i, 1}}};
    op.addAccess(access);
    w.addOp(std::move(op));
    return w;
}

TEST(FrontendLimits, HugeExtentIsADiagnosticNotOverflow)
{
    const Workload w = tinyWorkload();
    DiagnosticEngine diags;
    auto tree = parseNotationDiag(
        w, "tile @L0 [i:t9999999999999] { op A }", diags);
    EXPECT_FALSE(tree.has_value());
    ASSERT_GE(diags.diagnostics().size(), 1u);
    EXPECT_EQ(diags.diagnostics()[0].code, "S205");
    // And one past int64 entirely.
    diags.clear();
    EXPECT_FALSE(parseNotationDiag(
                     w, "tile @L0 [i:t99999999999999999999] { op A }",
                     diags)
                     .has_value());
    EXPECT_EQ(diags.diagnostics()[0].code, "S205");
}

TEST(FrontendLimits, NestingDepthCap)
{
    const Workload w = tinyWorkload();
    std::string text;
    for (int d = 0; d < 200; ++d)
        text += "tile @L0 [i:t1] { ";
    text += "op A";
    for (int d = 0; d < 200; ++d)
        text += " }";
    DiagnosticEngine diags;
    EXPECT_FALSE(parseNotationDiag(w, text, diags).has_value());
    bool saw_depth_cap = false;
    for (const Diagnostic& d : diags.diagnostics())
        saw_depth_cap = saw_depth_cap || d.code == "P105";
    EXPECT_TRUE(saw_depth_cap);
}

TEST(FrontendLimits, NodeCountCap)
{
    const Workload w = tinyWorkload();
    ParseLimits limits;
    limits.maxNodes = 16;
    std::string text = "tile @L0 [i:t8] { seq {";
    for (int n = 0; n < 64; ++n)
        text += " op A";
    text += " } }";
    DiagnosticEngine diags;
    EXPECT_FALSE(parseNotationDiag(w, text, diags, limits).has_value());
    bool saw_node_cap = false;
    for (const Diagnostic& d : diags.diagnostics())
        saw_node_cap = saw_node_cap || d.code == "P106";
    EXPECT_TRUE(saw_node_cap);
}

TEST(FrontendLimits, OversizedInputIsADiagnostic)
{
    const Workload w = tinyWorkload();
    ParseLimits limits;
    limits.maxInputBytes = 1024;
    const std::string text(4096, '{');
    DiagnosticEngine diags;
    EXPECT_FALSE(parseNotationDiag(w, text, diags, limits).has_value());
    bool saw_size_cap = false;
    for (const Diagnostic& d : diags.diagnostics())
        saw_size_cap = saw_size_cap || d.code == "L004";
    EXPECT_TRUE(saw_size_cap);
}

TEST(FrontendLimits, SubscriptDimOutsideOpDimSetIsADiagnostic)
{
    // Found by the parser fuzzer: this used to leak a FatalError out
    // of Operator::addAccess instead of reporting a diagnostic.
    DiagnosticEngine diags;
    auto w = parseWorkloadSpec("workload \"x\" {\n"
                               "  dim i 4\n"
                               "  dim j 4\n"
                               "  tensor T [i, j]\n"
                               "  op f matrix {\n"
                               "    dims i\n"
                               "    write T [i, j]\n"
                               "  }\n"
                               "}\n",
                               diags);
    EXPECT_FALSE(w.has_value());
    ASSERT_GE(diags.diagnostics().size(), 1u);
    EXPECT_EQ(diags.diagnostics()[0].code, "W511");
}

TEST(FrontendLimits, TensorRankAboveMaxRankIsALocatedDiagnostic)
{
    // One dim more than a HyperRect can hold: reported at the tensor's
    // name, not thrown from Workload::addTensor.
    std::string shape = "i";
    for (size_t d = 1; d <= kMaxRank; ++d)
        shape += ", i";
    DiagnosticEngine diags;
    auto w = parseWorkloadSpec(concat("workload \"x\" {\n"
                                      "  dim i 2\n"
                                      "  tensor T [",
                                      shape,
                                      "]\n"
                                      "}\n"),
                               diags);
    EXPECT_FALSE(w.has_value());
    ASSERT_GE(diags.diagnostics().size(), 1u);
    const Diagnostic& d = diags.diagnostics()[0];
    EXPECT_EQ(d.code, "W512");
    EXPECT_EQ(d.loc.line, 3);
    EXPECT_EQ(d.loc.col, 10);
    EXPECT_NE(d.message.find(concat("rank ", kMaxRank + 1)),
              std::string::npos)
        << d.message;
}

TEST(FrontendLimits, ArchFanoutProductOverflowIsADiagnostic)
{
    std::string text = "arch \"big\" {\n";
    for (int l = 0; l < 8; ++l) {
        text += concat("level \"L", l,
                       "\" { capacity 1KiB bandwidth_gbps 1 "
                       "fanout 1048576 }\n");
    }
    text += "}\n";
    DiagnosticEngine diags;
    EXPECT_FALSE(parseArchSpec(text, diags).has_value());
    bool saw_overflow = false;
    for (const Diagnostic& d : diags.diagnostics())
        saw_overflow = saw_overflow || d.code == "A408";
    EXPECT_TRUE(saw_overflow);
}

// ---------------------------------------------------------------- //
// Legacy wrappers.                                                  //
// ---------------------------------------------------------------- //

TEST(FrontendLegacy, ParseNotationThrowsWithRenderedDiagnostics)
{
    const Workload w = tinyWorkload();
    try {
        parseNotation(w, "tile @L0 [zz:t4] { op A }");
        FAIL() << "expected FatalError";
    } catch (const FatalError& err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("S201"), std::string::npos) << what;
        EXPECT_NE(what.find("unknown dim"), std::string::npos) << what;
        EXPECT_NE(what.find("^"), std::string::npos) << what;
    }
}

TEST(FrontendLegacy, CheckTreeAggregatesAllProblems)
{
    // A scope root with a single child has at least two independent
    // problems: non-tile root and an under-populated scope.
    const Workload w = tinyWorkload();
    AnalysisTree tree(w);
    auto root = Node::makeScope(ScopeKind::Seq);
    root->addChild(Node::makeOp(0));
    tree.setRoot(std::move(root));
    try {
        checkTree(tree);
        FAIL() << "expected FatalError";
    } catch (const FatalError& err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("root node must be a tile"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("fewer than two children"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("problems"), std::string::npos) << what;
    }
}

TEST(FrontendLegacy, ValidateTreeKeepsWarnPrefix)
{
    // The stringly API still marks advisory findings with "warn: " for
    // existing callers that filter on the prefix.
    DiagnosticEngine diags;
    auto workload = loadWorkloadSpec(specsDir() + "/fig4.wl", diags);
    ASSERT_TRUE(workload.has_value());
    // Put producer A's reduction dim k on the fusing root tile.
    auto tree = parseNotationDiag(
        *workload,
        "tile @L1 [i:t128, j:t256, l:t128, k:t2] { pipe {\n"
        "  tile @L0 [k:t32] { op A }\n"
        "  tile @L0 [] { op B }\n"
        "  tile @L0 [] { op C }\n"
        "} }",
        diags);
    ASSERT_TRUE(tree.has_value()) << diags.render("", "<inline>");
    bool saw_warn = false;
    for (const std::string& problem : validateTree(*tree))
        saw_warn = saw_warn || problem.rfind("warn: ", 0) == 0;
    EXPECT_TRUE(saw_warn);
}

} // namespace
} // namespace tileflow
