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
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/datamovement.hpp"
#include "analysis/evaluator.hpp"
#include "arch/presets.hpp"
#include "common/rng.hpp"
#include "core/notation.hpp"
#include "core/validate.hpp"
#include "frontend/workloadspec.hpp"
#include "ir/builders.hpp"
#include "ir/shapes.hpp"
#include "mapper/encoding.hpp"

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

/** The workload of a spec text; throws (failing the test) with the
 *  rendered diagnostics if it does not parse. */
Workload
specWorkload(const std::string& text)
{
    DiagnosticEngine diags;
    std::optional<Workload> workload = parseWorkloadSpec(text, diags);
    if (!workload)
        throw std::runtime_error(diags.render(text, "case.wl"));
    return std::move(*workload);
}

/** Bitwise equality of two doubles (no tolerance, -0.0 != 0.0). */
void
expectBits(double actual, double expected, const char* what)
{
    EXPECT_EQ(std::memcmp(&actual, &expected, sizeof actual), 0)
        << what << ": " << std::setprecision(17) << actual
        << " != " << expected;
}

/** Pin every field of `partial` to exact values. */
void
expectPartial(const DmNodePartial& partial, double load, double store,
              const std::vector<double>& fill,
              const std::vector<double>& drain,
              const std::vector<int>& levels)
{
    expectBits(partial.loadBytes, load, "loadBytes");
    expectBits(partial.storeBytes, store, "storeBytes");
    ASSERT_EQ(partial.childFill.size(), fill.size());
    ASSERT_EQ(partial.childDrain.size(), drain.size());
    for (size_t j = 0; j < fill.size(); ++j) {
        SCOPED_TRACE(j);
        expectBits(partial.childFill[j], fill[j], "childFill");
        expectBits(partial.childDrain[j], drain[j], "childDrain");
    }
    EXPECT_EQ(std::vector<int>(partial.childLevels.begin(),
                               partial.childLevels.end()),
              levels);
}

TEST(DataMovement, RegisterFeedingNodeSplitsRetainedAndStreamedAccesses)
{
    // An L1 node feeding the 16 KiB register file: the step slices of
    // A and B are 16x256 fp16 = 8 KiB each, over a quarter of the
    // file, so they stream (re-fetched every step, uniform weights);
    // C's 16x16 slice is retained (relevant-loop weights). Both passes
    // of the split run under the one node.
    const Workload workload = buildMatmul("mm", 64, 64, 256);
    const ArchSpec spec = makeValidationArch();
    const AnalysisTree tree = parseNotation(workload, R"(
        tile @L1 [i:t4, j:t4] {
          tile @L0 [i:s16, j:s16, k:t256] { op matmul }
        }
    )");
    const DmNodePartial partial =
        DataMovementAnalyzer(workload, spec).analyzeTile(tree.root());
    // Streamed, with adjacent-step deltas: B is refetched at each of
    // the 16 steps and A at each of the 4 values of i, 20 x 8 KiB.
    // (Retained, each would be fetched 4 times: 64 KiB in all.)
    // Retained C drains each of its 16 tiles once: 16 x 512 B.
    expectPartial(partial, 163840.0, 8192.0, {163840.0}, {8192.0}, {0});
}

TEST(DataMovement, SeqEvictionMovesOwnershipToTheNextChild)
{
    // p and q both read X: when q starts, p's resident X moves to q
    // (no refetch), so q's fill is zero at every step.
    const Workload workload = specWorkload(R"(
        workload "seqmove" {
          dim c 8
          tensor X [c]
          tensor P [c]
          tensor Q [c]
          op p vector {
            dims c
            read X [c]
            write P [c]
          }
          op q vector {
            dims c
            read X [c]
            write Q [c]
          }
        }
    )");
    const ArchSpec spec = makeValidationArch();
    const AnalysisTree tree = parseNotation(workload, R"(
        tile @L1 [c:t2] {
          seq {
            tile @L0 [c:t4] { op p }
            tile @L0 [c:t4] { op q }
          }
        }
    )");
    const DmNodePartial partial =
        DataMovementAnalyzer(workload, spec).analyzeTile(tree.root());
    // X (8 elements, fp16) is filled once, into p; P and Q drain one
    // 4-element slice per eviction and at the final write-back.
    expectPartial(partial, 16.0, 40.0, {16.0, 0.0}, {24.0, 16.0}, {0, 0});
}

TEST(DataMovement, SeqEvictionDrainsADirtyResident)
{
    // p's output P is dirty when q starts and q does not use it, so
    // the eviction writes it upward; q's own output drains only at
    // the final write-back.
    const Workload workload = specWorkload(R"(
        workload "seqdirty" {
          dim c 8
          tensor X [c]
          tensor Y [c]
          tensor P [c]
          tensor Q [c]
          op p vector {
            dims c
            read X [c]
            write P [c]
          }
          op q vector {
            dims c
            read Y [c]
            write Q [c]
          }
        }
    )");
    const ArchSpec spec = makeValidationArch();
    const AnalysisTree tree = parseNotation(workload, R"(
        tile @L1 [c:t2] {
          seq {
            tile @L0 [c:t4] { op p }
            tile @L0 [c:t4] { op q }
          }
        }
    )");
    const DmNodePartial partial =
        DataMovementAnalyzer(workload, spec).analyzeTile(tree.root());
    // P: evicted dirty when q starts, at both steps (2 x 8 B), plus
    // the final write-back (8 B); Q: evicted when p starts the second
    // step, plus the final write-back.
    expectPartial(partial, 32.0, 40.0, {16.0, 16.0}, {24.0, 16.0}, {0, 0});
}

TEST(DataMovement, ReadReplacingADirtyResidentDrainsIt)
{
    // a writes T and b reads it next under Seq: a's dirty T moves to
    // b. When b's slice of T is a different rectangle, b's read
    // displaces the dirty data, which drains upward; with the same
    // rectangle it stays dirty in place and drains nothing there.
    const Workload workload = specWorkload(R"(
        workload "readdirty" {
          dim i 16
          tensor X [i]
          tensor T [i]
          tensor U [i]
          op a vector {
            dims i
            read X [i]
            write T [i]
          }
          op b vector {
            dims i
            read T [i]
            write U [i]
          }
        }
    )");
    const ArchSpec spec = makeValidationArch();
    const DataMovementAnalyzer analyzer(workload, spec);
    const AnalysisTree displaced = parseNotation(workload, R"(
        tile @L1 [i:t4] {
          seq {
            tile @L0 [i:t4] { op a }
            tile @L0 [i:t2] { op b }
          }
        }
    )");
    // b's read drains the dirty 4-element T slice at each of the 4
    // steps (32 B); T itself then drains only at a's final write-back.
    expectPartial(analyzer.analyzeTile(displaced.root()), 32.0, 56.0,
                  {32.0, 0.0}, {8.0, 48.0}, {0, 0});
    const AnalysisTree in_place = parseNotation(workload, R"(
        tile @L1 [i:t4] {
          seq {
            tile @L0 [i:t4] { op a }
            tile @L0 [i:t4] { op b }
          }
        }
    )");
    // T stays dirty, moves back to a, and drains when a overwrites it.
    expectPartial(analyzer.analyzeTile(in_place.root()), 32.0, 64.0,
                  {32.0, 0.0}, {32.0, 32.0}, {0, 0});
}

TEST(DataMovement, PassthroughChildMovesNothingAtItsParent)
{
    // The first child is declared at its parent's level: it manages
    // its own L1 traffic, and the parent moves nothing for it.
    const Workload workload = buildMatmulExp("me", 64, 64, 64);
    const ArchSpec spec = makeValidationArch();
    const AnalysisTree tree = parseNotation(workload, R"(
        tile @L1 [] {
          seq {
            tile @L1 [i:t4] {
              tile @L0 [i:s16, j:s16, k:t64] { op matmul }
            }
            tile @L0 [i:t64, j:t64] { op exp }
          }
        }
    )");
    const DataMovementAnalyzer analyzer(workload, spec);
    const DmNodePartial partial = analyzer.analyzeTile(tree.root());
    // Only exp's child moves data at the parent: C in, E out (64x64
    // fp16 each).
    expectPartial(partial, 8192.0, 8192.0, {0.0, 8192.0}, {0.0, 8192.0},
                  {1, 0});
    // The passthrough child's own traffic still reaches the levels.
    const DataMovementResult dm = analyzer.analyze(tree);
    expectBits(dm.levels[1].readBytes, 18432.0, "L1 read");
    expectBits(dm.levels[1].updateBytes, 10240.0, "L1 update");
    expectBits(dm.levels[0].fillBytes, 18432.0, "L0 fill");
    expectBits(dm.levels[0].readBytes, 28672.0, "L0 read");
}

/** Bitwise equality of two evaluations' numbers, or the first field
 *  that differs. */
std::string
firstDifference(const EvalResult& a, const EvalResult& b)
{
    auto same = [](double x, double y) {
        return std::memcmp(&x, &y, sizeof x) == 0;
    };
    if (a.valid != b.valid)
        return "valid";
    if (!same(a.cycles, b.cycles) || !same(a.energyPJ, b.energyPJ))
        return "cycles/energy";
    if (a.dm.levels.size() != b.dm.levels.size())
        return "levels";
    for (size_t i = 0; i < a.dm.levels.size(); ++i) {
        const LevelTraffic& x = a.dm.levels[i];
        const LevelTraffic& y = b.dm.levels[i];
        if (!same(x.readBytes, y.readBytes) ||
            !same(x.fillBytes, y.fillBytes) ||
            !same(x.updateBytes, y.updateBytes))
            return "level traffic";
    }
    if (a.dm.perNode.size() != b.dm.perNode.size())
        return "perNode size";
    for (auto x = a.dm.perNode.begin(), y = b.dm.perNode.begin();
         x != a.dm.perNode.end(); ++x, ++y) {
        if (x->first != y->first ||
            !same(x->second.loadBytes, y->second.loadBytes) ||
            !same(x->second.storeBytes, y->second.storeBytes))
            return "perNode";
    }
    if (a.latency.nodeCycles.size() != b.latency.nodeCycles.size())
        return "nodeCycles size";
    for (auto x = a.latency.nodeCycles.begin(),
              y = b.latency.nodeCycles.begin();
         x != a.latency.nodeCycles.end(); ++x, ++y) {
        if (x->first != y->first || !same(x->second, y->second))
            return "nodeCycles";
    }
    return "";
}

TEST(DataMovement, ConcurrentAnalyzeOnOneAnalyzerIsBitIdentical)
{
    // Mapper workers share one Evaluator, so the analyzers must keep
    // their per-call scratch out of shared state. Four threads
    // evaluate the same seeded draws, each from its own starting
    // point, and must match a serial pass bit for bit.
    const Workload attention =
        buildAttention(attentionShape("Bert-S"), false);
    const Workload chain = buildConvChain(convChainShape("CC1"));
    const ArchSpec edge = makeEdgeArch();
    const ArchSpec cloud = makeCloudArch();
    const Evaluator attention_model(attention, edge);
    const Evaluator chain_model(chain, cloud);
    const MappingSpace attention_space =
        makeAttentionSpace(attention, edge);
    const MappingSpace chain_space = makeConvChainSpace(chain, cloud);

    struct Draw
    {
        const Evaluator* model;
        AnalysisTree tree;
        EvalResult serial;
    };
    std::vector<Draw> draws;
    Rng rng(23);
    for (int i = 0; i < 48; ++i) {
        const bool attn = i % 2 == 0;
        const MappingSpace& space = attn ? attention_space : chain_space;
        std::vector<int64_t> choices;
        for (const Knob& knob : space.knobs()) {
            const int64_t last = int64_t(knob.choices.size()) - 1;
            choices.push_back(
                knob.choices[size_t(rng.uniformInt(0, last))]);
        }
        draws.push_back(Draw{attn ? &attention_model : &chain_model,
                             space.build(choices), EvalResult{}});
    }
    int valid = 0;
    for (Draw& d : draws) {
        d.serial = d.model->evaluate(d.tree);
        valid += d.serial.valid ? 1 : 0;
    }
    ASSERT_GT(valid, 0);

    constexpr size_t kThreads = 4;
    std::vector<std::string> mismatch(kThreads);
    std::vector<std::thread> workers;
    for (size_t t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            for (size_t n = 0; n < draws.size(); ++n) {
                const Draw& d = draws[(n + t * 11) % draws.size()];
                const std::string diff =
                    firstDifference(d.model->evaluate(d.tree), d.serial);
                if (!diff.empty() && mismatch[t].empty())
                    mismatch[t] = diff + " differs on\n" + d.tree.str();
            }
        });
    }
    for (std::thread& w : workers)
        w.join();
    for (size_t t = 0; t < kThreads; ++t)
        EXPECT_EQ(mismatch[t], "") << "thread " << t;
}

} // namespace
} // namespace tileflow
