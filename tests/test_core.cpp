/**
 * @file
 * Core tests: tree nodes, path/span queries, tiling tables, and tree
 * validation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "common/logging.hpp"
#include "core/mapping.hpp"
#include "core/notation.hpp"
#include "core/validate.hpp"
#include "arch/presets.hpp"
#include "ir/builders.hpp"

namespace tileflow {
namespace {

AnalysisTree
simpleTree(const Workload& w)
{
    return parseNotation(w, R"(
        tile @L2 [i:s4, i:t4, j:t4, k:t4] {
          tile @L1 [i:t1, j:t4, k:t4] {
            tile @L0 [i:s16, j:s16, k:t16] { op matmul }
          }
        }
    )");
}

TEST(Node, FactoriesAndKinds)
{
    auto tile = Node::makeTile(1, {Loop{0, 4, LoopKind::Temporal}});
    auto scope = Node::makeScope(ScopeKind::Pipe);
    auto op = Node::makeOp(0);
    EXPECT_TRUE(tile->isTile());
    EXPECT_TRUE(scope->isScope());
    EXPECT_TRUE(op->isOp());
    EXPECT_EQ(scope->scopeKind(), ScopeKind::Pipe);
    EXPECT_THROW(op->addChild(Node::makeOp(1)), FatalError);
}

TEST(Node, StepAndSpatialProducts)
{
    auto tile = Node::makeTile(1, {Loop{0, 4, LoopKind::Temporal},
                                   Loop{1, 3, LoopKind::Spatial},
                                   Loop{2, 5, LoopKind::Temporal}});
    EXPECT_EQ(tile->temporalSteps(), 20);
    EXPECT_EQ(tile->spatialExtent(), 3);
    EXPECT_EQ(tile->loopExtent(0, LoopKind::Temporal), 4);
    EXPECT_EQ(tile->loopExtent(0, LoopKind::Spatial), 1);
}

TEST(Node, OpLeavesInExecutionOrder)
{
    const Workload w = buildMatmulExp("me", 64, 64, 64);
    const AnalysisTree tree = parseNotation(w, R"(
        tile @L2 [i:t4, j:t4] {
          shar {
            tile @L0 [i:s16, j:s16, k:t64] { op matmul }
            tile @L0 [i:s16, j:t16]        { op exp }
          }
        }
    )");
    const auto leaves = tree.root()->opLeaves();
    ASSERT_EQ(leaves.size(), 2u);
    EXPECT_EQ(leaves[0]->op(), w.opId("matmul"));
    EXPECT_EQ(leaves[1]->op(), w.opId("exp"));
    // The in-place walk visits the same leaves in the same order and
    // stops where its visitor says so.
    std::vector<const Node*> visited;
    EXPECT_TRUE(visitOpLeaves(tree.root(), [&](const Node* leaf) {
        visited.push_back(leaf);
        return true;
    }));
    EXPECT_EQ(visited, leaves);
    int calls = 0;
    EXPECT_FALSE(visitOpLeaves(tree.root(), [&](const Node*) {
        ++calls;
        return false;
    }));
    EXPECT_EQ(calls, 1);
}

TEST(Node, CloneIsDeepAndEqualShaped)
{
    const Workload w = buildMatmul("mm", 256, 256, 256);
    const AnalysisTree tree = simpleTree(w);
    const AnalysisTree copy = tree.clone();
    EXPECT_NE(tree.root(), copy.root());
    EXPECT_EQ(printNotation(tree), printNotation(copy));
}

TEST(Tree, PathSpanMultipliesAcrossLevels)
{
    const Workload w = buildMatmul("mm", 256, 256, 256);
    const AnalysisTree tree = simpleTree(w);
    const Node* leaf = tree.root()->opLeaves()[0];
    EXPECT_EQ(pathSpan(tree.root(), leaf, w.dimId("i")), 4 * 4 * 16);
    EXPECT_EQ(pathSpan(tree.root(), leaf, w.dimId("k")), 4 * 4 * 16);
    const Node* l1 = tree.root()->child(0);
    EXPECT_EQ(pathSpan(l1, leaf, w.dimId("j")), 4 * 16);
}

TEST(Tree, ExecutionCountMultipliesAncestors)
{
    const Workload w = buildMatmul("mm", 256, 256, 256);
    const AnalysisTree tree = simpleTree(w);
    const Node* l1 = tree.root()->child(0);
    const Node* l0 = l1->child(0);
    EXPECT_EQ(executionCount(tree.root()), 1);
    EXPECT_EQ(executionCount(l1), 4 * 64);     // root steps x spatial
    EXPECT_EQ(executionCount(l0), 4 * 64 * 16); // plus L1 steps
}

TEST(Tree, EnclosingTileAndAncestry)
{
    const Workload w = buildMatmul("mm", 256, 256, 256);
    const AnalysisTree tree = simpleTree(w);
    const Node* leaf = tree.root()->opLeaves()[0];
    const Node* l0 = enclosingTile(leaf);
    ASSERT_NE(l0, nullptr);
    EXPECT_EQ(l0->memLevel(), 0);
    EXPECT_TRUE(isAncestorOf(tree.root(), leaf));
    EXPECT_FALSE(isAncestorOf(leaf, tree.root()));
}

TEST(Mapping, CeilDivAndDivisors)
{
    EXPECT_EQ(ceilDiv(10, 3), 4);
    EXPECT_EQ(ceilDiv(9, 3), 3);
    EXPECT_EQ(ceilDiv(1, 1), 1);
    const auto d12 = divisors(12);
    EXPECT_EQ(d12, (std::vector<int64_t>{1, 2, 3, 4, 6, 12}));
}

TEST(Mapping, SplitBalancedCoversExtent)
{
    for (int64_t extent : {7, 12, 64, 196, 512, 1000}) {
        for (int parts : {1, 2, 3, 4}) {
            const auto factors = splitBalanced(extent, parts);
            ASSERT_EQ(int(factors.size()), parts);
            int64_t product = 1;
            for (int64_t f : factors) {
                EXPECT_GE(f, 1);
                product *= f;
            }
            EXPECT_GE(product, extent);
            // Padding stays bounded.
            EXPECT_LE(product, 2 * extent * parts);
        }
    }
}

TEST(Mapping, SplitBalancedPicksTheSmallestNearestDivisor)
{
    // The divisor walk visits pairs (d, n / d); it must pick what a
    // scan of the ascending divisors() list picks: the first (so the
    // smallest) divisor at the minimum distance from the target.
    auto reference = [](int64_t extent, int parts) {
        std::vector<int64_t> out;
        int64_t remaining = extent;
        for (int left = parts; left >= 1; --left) {
            if (left == 1) {
                out.push_back(remaining);
                break;
            }
            const double target = std::pow(double(remaining), 1.0 / left);
            const int64_t best =
                std::max<int64_t>(1, int64_t(std::llround(target)));
            int64_t best_divisor = 1;
            double best_dist = 1e30;
            for (int64_t d : divisors(remaining)) {
                const double dist = std::fabs(double(d) - target);
                if (dist < best_dist) {
                    best_dist = dist;
                    best_divisor = d;
                }
            }
            int64_t factor = best_divisor;
            if (best_divisor > 2 * best || best_divisor * 2 < best)
                factor = best;
            out.push_back(std::max<int64_t>(1, factor));
            remaining = ceilDiv(remaining, out.back());
        }
        return out;
    };
    for (int64_t extent = 1; extent <= 1100; ++extent) {
        for (int parts : {1, 2, 3, 4, 5}) {
            ASSERT_EQ(splitBalanced(extent, parts),
                      reference(extent, parts))
                << extent << " in " << parts;
        }
    }
}

TEST(Mapping, TilingTableBasics)
{
    const Workload w = buildMatmul("mm", 64, 64, 64);
    TilingTable table(w.dims().size(), 3);
    table.set(w.dimId("i"), 2, 4);
    table.set(w.dimId("i"), 0, 16);
    EXPECT_EQ(table.get(w.dimId("i"), 2), 4);
    EXPECT_EQ(table.get(w.dimId("i"), 1), 1);
    EXPECT_EQ(table.product(w.dimId("i")), 64);
    EXPECT_THROW(table.set(w.dimId("i"), 9, 2), FatalError);
    EXPECT_THROW(table.set(w.dimId("i"), 0, 0), FatalError);
}

TEST(Mapping, NormalizeCoversAllDims)
{
    const Workload w = buildMatmul("mm", 60, 64, 100);
    TilingTable table(w.dims().size(), 3);
    table.set(w.dimId("i"), 0, 16);
    table.normalize(w);
    for (const auto& dim : {std::string("i"), std::string("j"),
                            std::string("k")}) {
        EXPECT_GE(table.product(w.dimId(dim)),
                  w.dim(w.dimId(dim)).extent);
    }
}

TEST(Mapping, ResidualComputesRemainingTrips)
{
    const Workload w = buildMatmul("mm", 64, 64, 64);
    TilingTable table(w.dims().size(), 3);
    table.set(w.dimId("i"), 0, 16);
    table.set(w.dimId("i"), 1, 2);
    EXPECT_EQ(table.residual(w, w.dimId("i"), 2), 2);
}

/**
 * Every diagnostic site of the validator, pinned: one broken tree per
 * site, with the exact severity, code, message and order that
 * validateTreeDiag reports, the string form validateTree returns, and
 * the aggregated checkTree failure.
 */
struct ExpectedDiag
{
    Severity severity;
    std::string code;
    std::string message;
};

struct ValidateCase
{
    std::string name;
    std::function<AnalysisTree(const Workload&)> build;
    bool fused = false;      ///< matmul+exp workload instead of matmul
    bool withSpec = false;   ///< check levels against makeValidationArch
    std::vector<ExpectedDiag> expected;
};

Loop
tp(const Workload& w, const char* dim, int64_t extent)
{
    return Loop{w.dimId(dim), extent, LoopKind::Temporal};
}

Loop
sp(const Workload& w, const char* dim, int64_t extent)
{
    return Loop{w.dimId(dim), extent, LoopKind::Spatial};
}

/** L0 tile covering all of a 16^3 matmul (op 0) by itself. */
std::unique_ptr<Node>
fullMatmulTile(const Workload& w)
{
    auto tile = Node::makeTile(0, {sp(w, "i", 16), sp(w, "j", 16),
                                   tp(w, "k", 16)});
    tile->addChild(Node::makeOp(0));
    return tile;
}

/** Root tile at `level` over the given loops and one child. */
AnalysisTree
rootOver(const Workload& w, int level, std::vector<Loop> loops,
         std::unique_ptr<Node> child)
{
    AnalysisTree tree(w);
    auto root = Node::makeTile(level, std::move(loops));
    if (child)
        root->addChild(std::move(child));
    tree.setRoot(std::move(root));
    return tree;
}

std::vector<ValidateCase>
validateCases()
{
    const Severity E = Severity::Error;
    const Severity W = Severity::Warning;
    std::vector<ValidateCase> cases;
    cases.push_back({"NoRoot",
                     [](const Workload& w) { return AnalysisTree(w); },
                     false, false, {{E, "V301", "tree has no root"}}});
    cases.push_back(
        {"RootNotTileAndOpWithoutTile",
         [](const Workload& w) {
             AnalysisTree tree(w);
             auto scope = Node::makeScope(ScopeKind::Seq);
             scope->addChild(Node::makeOp(0));
             scope->addChild(fullMatmulTile(w));
             tree.setRoot(std::move(scope));
             return tree;
         },
         false, false,
         {{E, "V301", "root node must be a tile"},
          {E, "V301", "op 'matmul' has no enclosing tile"}}});
    cases.push_back({"NegativeLevel",
                     [](const Workload& w) {
                         return rootOver(w, -1, {}, fullMatmulTile(w));
                     },
                     false, false,
                     {{E, "V301", "tile has negative memory level -1"}}});
    cases.push_back(
        {"LevelBeyondArch",
         [](const Workload& w) {
             return rootOver(w, 7, {}, fullMatmulTile(w));
         },
         false, true,
         {{E, "V301",
           "tile level L7 exceeds architecture hierarchy (3 levels)"}}});
    cases.push_back(
        {"LevelAboveParent",
         [](const Workload& w) {
             auto mid = Node::makeTile(2, {});
             mid->addChild(fullMatmulTile(w));
             return rootOver(w, 1, {}, std::move(mid));
         },
         false, false,
         {{E, "V301", "tile level L2 is above its parent tile L1"}}});
    cases.push_back(
        {"UnknownDims",
         [](const Workload& w) {
             return rootOver(w, 2,
                             {Loop{7, 2, LoopKind::Temporal},
                              Loop{-1, 2, LoopKind::Spatial},
                              Loop{7, 2, LoopKind::Temporal}},
                             fullMatmulTile(w));
         },
         false, false,
         {{E, "V302", "loop references unknown dim 7"},
          {E, "V302", "loop references unknown dim -1"},
          {E, "V302", "loop references unknown dim 7"}}});
    cases.push_back(
        {"NonPositiveExtents",
         [](const Workload& w) {
             return rootOver(w, 2, {tp(w, "i", 0), sp(w, "j", -3)},
                             fullMatmulTile(w));
         },
         false, false,
         {{E, "V302", "loop over dim 0 has extent 0"},
          {E, "V302", "loop over dim 1 has extent -3"}}});
    cases.push_back(
        {"RepeatedDimAndKind",
         [](const Workload& w) {
             // i:t twice then a third time, i:s once (a different
             // kind), k:t after a bad-extent k:t.
             return rootOver(w, 2,
                             {tp(w, "i", 1), sp(w, "i", 1), tp(w, "i", 1),
                              tp(w, "k", 0), tp(w, "k", 1),
                              tp(w, "i", 1)},
                             fullMatmulTile(w));
         },
         false, false,
         {{E, "V302", "dim 'i' appears twice with the same kind in one tile"},
          {E, "V302", "loop over dim 2 has extent 0"},
          {E, "V302", "dim 'k' appears twice with the same kind in one tile"},
          {E, "V302",
           "dim 'i' appears twice with the same kind in one tile"}}});
    cases.push_back({"TileWithoutChildren",
                     [](const Workload& w) {
                         return rootOver(w, 2, {}, nullptr);
                     },
                     false, false,
                     {{E, "V301", "tile node has no children"}}});
    cases.push_back(
        {"SingleChildScope",
         [](const Workload& w) {
             auto scope = Node::makeScope(ScopeKind::Pipe);
             scope->addChild(fullMatmulTile(w));
             return rootOver(w, 2, {}, std::move(scope));
         },
         false, false,
         {{E, "V301", "scope 'pipe' has fewer than two children"}}});
    cases.push_back(
        {"UnknownOp",
         [](const Workload& w) {
             auto tile = Node::makeTile(0, {});
             tile->addChild(Node::makeOp(5));
             return rootOver(w, 2, {}, std::move(tile));
         },
         false, false,
         {{E, "V301", "op leaf references unknown op 5"}}});
    cases.push_back(
        {"OpAboveLevelZero",
         [](const Workload& w) {
             return rootOver(w, 2,
                             {tp(w, "i", 16), tp(w, "j", 16),
                              tp(w, "k", 16)},
                             Node::makeOp(0));
         },
         false, false,
         {{E, "V301",
           "op 'matmul' must sit under a level-0 tile, found L2"}}});
    cases.push_back(
        {"UndercoveredDims",
         [](const Workload& w) {
             auto tile = Node::makeTile(0, {sp(w, "i", 4), tp(w, "k", 8)});
             tile->addChild(Node::makeOp(0));
             return rootOver(w, 2, {tp(w, "i", 2)}, std::move(tile));
         },
         false, false,
         {{E, "V303", "op 'matmul': dim 'i' covered 8 < extent 16"},
          {E, "V303", "op 'matmul': dim 'j' covered 1 < extent 16"},
          {E, "V303", "op 'matmul': dim 'k' covered 8 < extent 16"}}});
    cases.push_back(
        {"MissingAndRepeatedOps",
         [](const Workload& w) {
             // matmul twice, exp never.
             auto scope = Node::makeScope(ScopeKind::Seq);
             scope->addChild(fullMatmulTile(w));
             scope->addChild(fullMatmulTile(w));
             return rootOver(w, 2, {}, std::move(scope));
         },
         true, false,
         {{E, "V304", "op 'matmul' appears 2 times (expected exactly 1)"},
          {E, "V304", "op 'exp' appears 0 times (expected exactly 1)"}}});
    cases.push_back(
        {"ProducerReductionInFusingAncestor",
         [](const Workload& w) {
             auto mm = Node::makeTile(0, {sp(w, "i", 16), sp(w, "j", 16),
                                          tp(w, "k", 4)});
             mm->addChild(Node::makeOp(w.opId("matmul")));
             auto ex = Node::makeTile(0, {sp(w, "i", 16), sp(w, "j", 16)});
             ex->addChild(Node::makeOp(w.opId("exp")));
             auto scope = Node::makeScope(ScopeKind::Shar);
             scope->addChild(std::move(mm));
             scope->addChild(std::move(ex));
             // Fusing tiles above the producer: `inner`'s k:t1 (extent
             // 1) and the root's k:s1 (spatial) warn nothing; `mid`'s
             // and the root's k:t2 warn once each, inner tile first.
             auto inner = Node::makeTile(1, {tp(w, "k", 1)});
             inner->addChild(std::move(scope));
             auto mid = Node::makeTile(1, {tp(w, "k", 2)});
             mid->addChild(std::move(inner));
             return rootOver(w, 2, {tp(w, "k", 2), sp(w, "k", 1)},
                             std::move(mid));
         },
         true, false,
         {{W, "V305",
           "producer op 'matmul' has its reduction dim 'k' in a fusing "
           "ancestor tile; the pipeline will serialize"},
          {W, "V305",
           "producer op 'matmul' has its reduction dim 'k' in a fusing "
           "ancestor tile; the pipeline will serialize"}}});
    cases.push_back(
        {"CoverageThenMultiplicityThenWarning",
         [](const Workload& w) {
             // exp under-covers j, matmul appears twice (once as the
             // producer under a fusing k loop), exp once.
             auto mm = Node::makeTile(0, {sp(w, "i", 16), sp(w, "j", 16),
                                          tp(w, "k", 8)});
             mm->addChild(Node::makeOp(w.opId("matmul")));
             auto ex = Node::makeTile(0, {sp(w, "i", 16), sp(w, "j", 8)});
             ex->addChild(Node::makeOp(w.opId("exp")));
             auto again = Node::makeTile(0, {sp(w, "i", 16),
                                             sp(w, "j", 16),
                                             tp(w, "k", 16)});
             again->addChild(Node::makeOp(w.opId("matmul")));
             auto scope = Node::makeScope(ScopeKind::Seq);
             scope->addChild(std::move(mm));
             scope->addChild(std::move(ex));
             scope->addChild(std::move(again));
             return rootOver(w, 2, {tp(w, "k", 2)}, std::move(scope));
         },
         true, false,
         {{E, "V303", "op 'exp': dim 'j' covered 8 < extent 16"},
          {E, "V304", "op 'matmul' appears 2 times (expected exactly 1)"},
          {W, "V305",
           "producer op 'matmul' has its reduction dim 'k' in a fusing "
           "ancestor tile; the pipeline will serialize"},
          {W, "V305",
           "producer op 'matmul' has its reduction dim 'k' in a fusing "
           "ancestor tile; the pipeline will serialize"}}});
    cases.push_back(
        {"StructureErrorsInPreorder",
         [](const Workload& w) {
             // Errors in several nodes: reported in preorder, each
             // tile's level checks before its loops and children.
             auto bad = Node::makeTile(0, {tp(w, "j", 0)});
             bad->addChild(Node::makeOp(9));
             auto mid = Node::makeTile(3, {Loop{5, 2, LoopKind::Spatial}});
             mid->addChild(std::move(bad));
             auto scope = Node::makeScope(ScopeKind::Para);
             scope->addChild(std::move(mid));
             scope->addChild(Node::makeTile(1, {}));
             return rootOver(w, 2, {tp(w, "i", 1), tp(w, "i", 1)},
                             std::move(scope));
         },
         false, true,
         {{E, "V302", "dim 'i' appears twice with the same kind in one tile"},
          {E, "V301", "tile level L3 exceeds architecture hierarchy "
                      "(3 levels)"},
          {E, "V301", "tile level L3 is above its parent tile L2"},
          {E, "V302", "loop references unknown dim 5"},
          {E, "V302", "loop over dim 1 has extent 0"},
          {E, "V301", "op leaf references unknown op 9"},
          {E, "V301", "tile node has no children"}}});
    return cases;
}

TEST(Validate, PinsEveryDiagnosticSite)
{
    const Workload mm = buildMatmul("mm", 16, 16, 16);
    const Workload fused = buildMatmulExp("me", 16, 16, 16);
    const ArchSpec spec = makeValidationArch();
    for (const ValidateCase& c : validateCases()) {
        SCOPED_TRACE(c.name);
        const AnalysisTree tree = c.build(c.fused ? fused : mm);
        const ArchSpec* arch = c.withSpec ? &spec : nullptr;

        DiagnosticEngine diags(4096);
        const bool ok = validateTreeDiag(tree, diags, arch);
        ASSERT_EQ(diags.diagnostics().size(), c.expected.size());
        size_t errors = 0;
        std::string aggregated;
        std::vector<std::string> strings;
        for (size_t i = 0; i < c.expected.size(); ++i) {
            const Diagnostic& got = diags.diagnostics()[i];
            const ExpectedDiag& want = c.expected[i];
            EXPECT_EQ(got.severity, want.severity) << i;
            EXPECT_EQ(got.code, want.code) << i;
            EXPECT_EQ(got.message, want.message) << i;
            EXPECT_FALSE(got.loc.valid()) << i;
            if (want.severity == Severity::Error) {
                ++errors;
                aggregated += "\n  [" + want.code + "] " + want.message;
                strings.push_back(want.message);
            } else {
                strings.push_back("warn: " + want.message);
            }
        }
        EXPECT_EQ(ok, errors == 0);
        EXPECT_EQ(validateTree(tree, arch), strings);

        if (errors == 0) {
            EXPECT_NO_THROW(checkTree(tree, arch));
            continue;
        }
        try {
            checkTree(tree, arch);
            ADD_FAILURE() << "checkTree accepted a broken tree";
        } catch (const FatalError& e) {
            EXPECT_EQ(std::string(e.what()),
                      concat("invalid analysis tree (", errors, " problem",
                             errors == 1 ? "" : "s", "):", aggregated));
        }
    }
}

TEST(Validate, AcceptsWellFormedTree)
{
    const Workload w = buildMatmul("mm", 256, 256, 256);
    const AnalysisTree tree = simpleTree(w);
    EXPECT_TRUE(validateTree(tree).empty());
    EXPECT_NO_THROW(checkTree(tree));
}

TEST(Validate, RejectsUndercoveredDim)
{
    const Workload w = buildMatmul("mm", 256, 256, 256);
    const AnalysisTree tree = parseNotation(w, R"(
        tile @L2 [i:t4, j:t16, k:t16] {
          tile @L0 [i:s16, j:s16, k:t16] { op matmul }
        }
    )");
    const auto problems = validateTree(tree);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("covered"), std::string::npos);
    EXPECT_THROW(checkTree(tree), FatalError);
}

TEST(Validate, RejectsOpAboveLevelZero)
{
    const Workload w = buildMatmul("mm", 16, 16, 16);
    AnalysisTree tree(w);
    auto root = Node::makeTile(2, {Loop{w.dimId("i"), 16, LoopKind::Temporal},
                                   Loop{w.dimId("j"), 16, LoopKind::Temporal},
                                   Loop{w.dimId("k"), 16, LoopKind::Temporal}});
    root->addChild(Node::makeOp(0));
    tree.setRoot(std::move(root));
    const auto problems = validateTree(tree);
    ASSERT_FALSE(problems.empty());
}

TEST(Validate, RejectsLevelInversion)
{
    const Workload w = buildMatmul("mm", 16, 16, 16);
    const AnalysisTree tree = parseNotation(w, R"(
        tile @L1 [] {
          tile @L2 [i:t1] {
            tile @L0 [i:s16, j:s16, k:t16] { op matmul }
          }
        }
    )");
    const auto problems = validateTree(tree);
    ASSERT_FALSE(problems.empty());
}

TEST(Validate, RejectsDuplicateOp)
{
    const Workload w = buildMatmul("mm", 16, 16, 16);
    const AnalysisTree tree = parseNotation(w, R"(
        tile @L2 [] {
          seq {
            tile @L0 [i:s16, j:s16, k:t16] { op matmul }
            tile @L0 [i:s16, j:s16, k:t16] { op matmul }
          }
        }
    )");
    const auto problems = validateTree(tree);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("appears"), std::string::npos);
}

TEST(Validate, WarnsOnProducerReductionInFusingAncestor)
{
    const Workload w = buildMatmulExp("me", 64, 64, 64);
    // k (matmul's reduction) iterated by a tile fusing both ops: exp
    // would consume partial sums -> advisory warning.
    const AnalysisTree tree = parseNotation(w, R"(
        tile @L2 [i:t4, j:t4, k:t4] {
          shar {
            tile @L0 [i:s16, j:s16, k:t16] { op matmul }
            tile @L0 [i:s16, j:t16]        { op exp }
          }
        }
    )");
    bool warned = false;
    for (const auto& problem : validateTree(tree))
        warned = warned || problem.find("warn:") == 0;
    EXPECT_TRUE(warned);
    EXPECT_NO_THROW(checkTree(tree)); // warnings are not fatal
}

TEST(Validate, RejectsSingleChildScope)
{
    const Workload w = buildMatmul("mm", 16, 16, 16);
    const AnalysisTree tree = parseNotation(w, R"(
        tile @L2 [] {
          pipe {
            tile @L0 [i:s16, j:s16, k:t16] { op matmul }
          }
        }
    )");
    EXPECT_FALSE(validateTree(tree).empty());
}

TEST(Validate, ArchBoundsLevelIndices)
{
    const Workload w = buildMatmul("mm", 16, 16, 16);
    const ArchSpec spec = makeValidationArch();
    const AnalysisTree tree = parseNotation(w, R"(
        tile @L7 [] {
          tile @L0 [i:s16, j:s16, k:t16] { op matmul }
        }
    )");
    EXPECT_FALSE(validateTree(tree, &spec).empty());
}

} // namespace
} // namespace tileflow
