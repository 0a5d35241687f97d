/**
 * @file
 * Incremental-evaluation microbench: candidate throughput of the plain
 * Evaluator vs the subtree-memoized IncrementalEvaluator on the
 * mapper's hot loop — single-knob mutations of a realistic mapping.
 *
 * Each trial flips one knob (a Scope binding or a loop's Sp/Tp kind)
 * of the TileFlow attention dataflow, evaluates the mutated tree, and
 * reverts the knob — exactly the neighborhood the GA / MCTS explores
 * around an incumbent. Both evaluators see the identical mutation
 * sequence (same seed). With a warm SubtreeCache only the mutated
 * node's ancestor spine re-analyzes, so the incremental path should
 * deliver >= 2x candidates/sec (the ISSUE acceptance bar, printed at
 * the end). Telemetry counters report how much re-analysis was
 * actually skipped. A fuzz-stream section repeats the comparison on
 * the oracle's small random trees, where the spine is a larger share
 * of the tree and the benefit is accordingly smaller.
 */

#include <chrono>
#include <cstdio>
#include <vector>

#include "analysis/incremental.hpp"
#include "arch/presets.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "dataflows/attention.hpp"
#include "ir/builders.hpp"
#include "ir/shapes.hpp"
#include "oracle/fuzz.hpp"

using namespace tileflow;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

void
collectMutable(Node* node, std::vector<Node*>& scopes,
               std::vector<Node*>& tiles)
{
    if (node->isScope())
        scopes.push_back(node);
    if (node->isTile() && !node->loops().empty())
        tiles.push_back(node);
    for (const auto& child : node->children())
        collectMutable(child.get(), scopes, tiles);
}

/**
 * Evaluate `trials` single-knob neighbors of `tree` (mutate, evaluate,
 * revert) through `evaluate`. The mutation stream depends only on
 * `seed`, so two calls with equal seeds traverse identical trees.
 */
template <typename EvalFn>
double
neighborSweep(const AnalysisTree& base, uint64_t seed, int trials,
              const EvalFn& evaluate)
{
    AnalysisTree tree = base.clone();
    std::vector<Node*> scopes;
    std::vector<Node*> tiles;
    collectMutable(tree.root(), scopes, tiles);
    Rng rng(seed);

    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < trials; ++i) {
        if (!scopes.empty() && rng.flip(0.5)) {
            Node* scope = scopes[rng.index(scopes.size())];
            static const ScopeKind kKinds[] = {
                ScopeKind::Seq, ScopeKind::Shar, ScopeKind::Para,
                ScopeKind::Pipe};
            const ScopeKind saved = scope->scopeKind();
            scope->setScopeKind(kKinds[rng.index(4)]);
            (void)evaluate(tree);
            scope->setScopeKind(saved);
        } else {
            Node* tile = tiles[rng.index(tiles.size())];
            Loop& loop = tile->loops()[rng.index(tile->loops().size())];
            const LoopKind saved = loop.kind;
            loop.kind = loop.isTemporal() ? LoopKind::Spatial
                                          : LoopKind::Temporal;
            (void)evaluate(tree);
            loop.kind = saved;
        }
    }
    return secondsSince(t0);
}

struct SweepStats
{
    double full_s = 0.0;
    double inc_s = 0.0;
    uint64_t hits = 0;
    uint64_t misses = 0;
};

SweepStats
compareOn(const AnalysisTree& base, const Evaluator& model,
          uint64_t seed, int trials)
{
    SweepStats stats;

    stats.full_s = neighborSweep(
        base, seed, trials,
        [&](const AnalysisTree& t) { return model.evaluate(t); });

    SubtreeCache cache;
    const IncrementalEvaluator incremental(model, cache);
    // Warm once so the sweep measures the steady state the mapper
    // lives in (the incumbent's subtrees already memoized).
    (void)incremental.evaluate(base);
    stats.inc_s = neighborSweep(
        base, seed, trials,
        [&](const AnalysisTree& t) { return incremental.evaluate(t); });
    stats.hits = cache.hits();
    stats.misses = cache.misses();
    return stats;
}

void
report(const char* label, const SweepStats& stats, int trials)
{
    const double full_rate = trials / stats.full_s;
    const double inc_rate = trials / stats.inc_s;
    std::printf("%-18s %10.0f %10.0f %9.2fx %10llu %10llu %7.1f%%\n",
                label, full_rate, inc_rate, inc_rate / full_rate,
                (unsigned long long)stats.hits,
                (unsigned long long)stats.misses,
                100.0 * double(stats.hits) /
                    double(stats.hits + stats.misses));
}

} // namespace

int
main()
{
    constexpr uint64_t kSeed = 0x1235813u;
    constexpr int kTrials = 2000;

    bench::banner("Incremental evaluation: single-knob-mutation "
                  "candidate throughput");

    std::printf("%-18s %10s %10s %10s %10s %10s %8s\n", "workload",
                "full/s", "inc/s", "speedup", "hits", "misses",
                "hit%");

    const ArchSpec edge = makeEdgeArch();
    double worst_speedup = 1e30;

    for (const char* name : {"Bert-S", "Bert-L"}) {
        const Workload workload =
            buildAttention(attentionShape(name), true);
        const AnalysisTree tree = buildAttentionDataflow(
            workload, edge, AttentionDataflow::TileFlowDF);
        const Evaluator model(workload, edge);
        const SweepStats stats = compareOn(tree, model, kSeed, kTrials);
        report(name, stats, kTrials);
        const double speedup = (kTrials / stats.inc_s) /
                               (kTrials / stats.full_s);
        if (speedup < worst_speedup)
            worst_speedup = speedup;
    }

    // The oracle's fuzz trees: small, shallow — the re-analyzed spine
    // is most of the tree, so this is the pessimistic end.
    {
        const ArchSpec validation = makeValidationArch();
        const FuzzCase fc = makeFuzzCase(0xBE7Cu, 7);
        const Evaluator model(*fc.workload, validation);
        const SweepStats stats =
            compareOn(*fc.tree, model, kSeed, kTrials);
        report("fuzz case", stats, kTrials);
    }

    std::printf("\nworst attention speedup: %.2fx (acceptance bar: "
                ">= 2.0x)\n",
                worst_speedup);

    std::printf("\nprocess-cumulative telemetry:\n%s",
                MetricsRegistry::global().table().c_str());
    return worst_speedup >= 2.0 ? 0 : 1;
}
