/**
 * @file
 * Data-movement analysis tests, anchored on the paper's Fig. 5 worked
 * example (single-tile analysis must yield DM_A = 168 elements) and on
 * first-principles reuse properties of matmul tilings.
 */

#include <cmath>
#include <cstring>
#include <iomanip>
#include <optional>

#include <gtest/gtest.h>

#include "analysis/datamovement.hpp"
#include "arch/presets.hpp"
#include "core/notation.hpp"
#include "core/validate.hpp"
#include "frontend/workloadspec.hpp"
#include "ir/builders.hpp"

namespace tileflow {
namespace {

/** Build the Fig. 5 tree: temporal {i:3, j:3} at L1 over a spatial
 *  {i:4, j:4, k:3} register tile. */
AnalysisTree
fig5Tree(const Workload& workload)
{
    return parseNotation(workload, R"(
        tile @L1 [i:t3, j:t3] {
          tile @L0 [i:s4, j:s4, k:s3] { op conv1d }
        }
    )");
}

TEST(DataMovement, Fig5TensorAIs168Elements)
{
    const Workload workload = buildFig5Conv1d();
    const ArchSpec spec = makeValidationArch();
    const AnalysisTree tree = fig5Tree(workload);
    checkTree(tree, &spec);

    const DataMovementAnalyzer analyzer(workload, spec);
    const DataMovementResult dm = analyzer.analyze(tree);

    // The L1 node reads tensors A and B into the register tile:
    //   A: initial 4x6 + 6 advances of j costing 4x4 + 2 advances of i
    //      costing 4x6  -> 24 + 96 + 48 = 168 elements (paper Sec. 5.1.1)
    //   B: initial 4x3, fully reused along j, refetched on i advances
    //      -> 12 + 2*12 = 36 elements
    // C is write-only: no read traffic, 9 x (4x4) = 144 elements of
    // update traffic (each displaced output tile is written back).
    const double word = 2.0; // fp16
    const LevelTraffic& l1 = dm.levels[1];
    EXPECT_DOUBLE_EQ(l1.readBytes, (168.0 + 36.0) * word);
    EXPECT_DOUBLE_EQ(l1.updateBytes, 144.0 * word);
}

TEST(DataMovement, Fig5PerNodeTrafficMatchesLevelTotals)
{
    const Workload workload = buildFig5Conv1d();
    const ArchSpec spec = makeValidationArch();
    const AnalysisTree tree = fig5Tree(workload);

    const DataMovementAnalyzer analyzer(workload, spec);
    const DataMovementResult dm = analyzer.analyze(tree);

    const NodeTraffic& root = dm.perNode.at(tree.root());
    // The root executes once, so its per-execution traffic equals the
    // level totals.
    EXPECT_DOUBLE_EQ(root.loadBytes, dm.levels[1].readBytes);
    EXPECT_DOUBLE_EQ(root.storeBytes, dm.levels[1].updateBytes);
}

TEST(DataMovement, MatmulOutputStationaryAvoidsUpdates)
{
    // k innermost at L1: the output tile C stays in the register level
    // across the whole reduction; updates happen only when (i, j) move.
    const Workload workload = buildMatmul("mm", 64, 64, 64);
    const ArchSpec spec = makeValidationArch();
    const AnalysisTree tree = parseNotation(workload, R"(
        tile @L1 [i:t4, j:t4, k:t4] {
          tile @L0 [i:s16, j:s16, k:t16] { op matmul }
        }
    )");
    checkTree(tree, &spec);
    const DataMovementAnalyzer analyzer(workload, spec);
    const DataMovementResult dm = analyzer.analyze(tree);

    // Output C is 64x64 fp16; every element is written back exactly
    // once because the reduction is innermost.
    EXPECT_DOUBLE_EQ(dm.levels[1].updateBytes, 64.0 * 64.0 * 2.0);
}

TEST(DataMovement, MatmulReductionOutermostMultipliesUpdates)
{
    // k outermost: every k step displaces and revisits the full output,
    // so update traffic is k_factor times larger than output size.
    const Workload workload = buildMatmul("mm", 64, 64, 64);
    const ArchSpec spec = makeValidationArch();
    const AnalysisTree tree = parseNotation(workload, R"(
        tile @L1 [k:t4, i:t4, j:t4] {
          tile @L0 [i:s16, j:s16, k:t16] { op matmul }
        }
    )");
    const DataMovementAnalyzer analyzer(workload, spec);
    const DataMovementResult dm = analyzer.analyze(tree);

    // With the adjacent-step model the output tile moves with (i, j)
    // inside each k step; traffic is strictly larger than the
    // output-stationary order.
    EXPECT_GT(dm.levels[1].updateBytes, 64.0 * 64.0 * 2.0);
}

TEST(DataMovement, EffectiveOpsCountsMACs)
{
    const Workload workload = buildMatmul("mm", 64, 32, 16);
    const ArchSpec spec = makeValidationArch();
    const AnalysisTree tree = parseNotation(workload, R"(
        tile @L1 [i:t4, j:t2] {
          tile @L0 [i:s16, j:s16, k:t16] { op matmul }
        }
    )");
    const DataMovementAnalyzer analyzer(workload, spec);
    const DataMovementResult dm = analyzer.analyze(tree);
    EXPECT_DOUBLE_EQ(dm.effectiveOps, 64.0 * 32.0 * 16.0);
    EXPECT_DOUBLE_EQ(dm.paddedOps, 64.0 * 32.0 * 16.0);
}

TEST(DataMovement, PaddedOpsReflectImperfectFactors)
{
    const Workload workload = buildMatmul("mm", 60, 32, 16);
    const ArchSpec spec = makeValidationArch();
    // i covered 4*16 = 64 > 60: padding waste must appear in paddedOps.
    const AnalysisTree tree = parseNotation(workload, R"(
        tile @L1 [i:t4, j:t2] {
          tile @L0 [i:s16, j:s16, k:t16] { op matmul }
        }
    )");
    const DataMovementAnalyzer analyzer(workload, spec);
    const DataMovementResult dm = analyzer.analyze(tree);
    EXPECT_DOUBLE_EQ(dm.effectiveOps, 60.0 * 32.0 * 16.0);
    EXPECT_DOUBLE_EQ(dm.paddedOps, 64.0 * 32.0 * 16.0);
}

TEST(DataMovement, SeqEvictionDrainsInResidentKeyOrder)
{
    // Child 0 of a Seq group leaves five residents when child 1
    // starts: X (clean, moves to child 1, which reads it), Y (clean,
    // dropped) and A, B, C (dirty, drained upward). The drained bytes
    // are 2^54, 2 and 4, large enough that the double sum depends on
    // the order: evicting in (child, tensor) key order, then adding
    // the final write-backs, gives exactly 2^55; the orders
    // (A, C, B), (B, C, A), (C, A, B) and (C, B, A) give 2^55 + 16.
    const std::string text = R"(
        workload "seqdrain" {
          dim a 134217728
          dim b 67108864
          dim c 2
          dim d 1
          tensor A [a, b]
          tensor B [d]
          tensor C [c]
          tensor X [c]
          tensor Y [c]
          tensor D [c]
          op p vector {
            dims a, b, c, d
            read X [c]
            read Y [c]
            write A [a, b]
            write B [d]
            write C [c]
          }
          op q vector {
            dims c
            read X [c]
            write D [c]
          }
        }
    )";
    DiagnosticEngine diags;
    const std::optional<Workload> workload = parseWorkloadSpec(text, diags);
    ASSERT_TRUE(workload.has_value()) << diags.render(text, "seqdrain.wl");
    const AnalysisTree tree = parseNotation(*workload, R"(
        tile @L1 [] {
          seq {
            tile @L0 [a:t134217728, b:t67108864, c:t2] { op p }
            tile @L0 [c:t2] { op q }
          }
        }
    )");
    const ArchSpec spec = makeValidationArch();
    const DmNodePartial partial =
        DataMovementAnalyzer(*workload, spec).analyzeTile(tree.root());
    ASSERT_EQ(partial.childDrain.size(), 2u);
    const double expected = std::ldexp(1.0, 55);
    EXPECT_EQ(std::memcmp(&partial.childDrain[0], &expected,
                          sizeof expected),
              0)
        << std::setprecision(17) << partial.childDrain[0];
    // The test can tell the orders apart: evicting C, B, A instead.
    const double big = std::ldexp(1.0, 54);
    const double reversed = (((((0.0 + 4.0) + 2.0) + big) + big) + 2.0) + 4.0;
    EXPECT_NE(reversed, expected);
}

} // namespace
} // namespace tileflow
