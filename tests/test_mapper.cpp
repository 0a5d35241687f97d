/**
 * @file
 * Mapper tests: encodings, MCTS tiling search, the GA, and the
 * end-to-end exploration (the mapper must rediscover the TileFlow
 * dataflow — the paper's central result).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/lowerbound.hpp"
#include "analysis/subtreecache.hpp"
#include "arch/presets.hpp"
#include "common/rng.hpp"
#include "core/validate.hpp"
#include "dataflows/attention.hpp"
#include "dataflows/chain.hpp"
#include "frontend/loader.hpp"
#include "ir/builders.hpp"
#include "ir/shapes.hpp"
#include "common/telemetry.hpp"
#include "mapper/mapper.hpp"
#include "mapper/mcts.hpp"

namespace tileflow {
namespace {

/** First index of a trace that holds a real (non-NaN) value. */
size_t
firstValid(const std::vector<double>& trace)
{
    size_t i = 0;
    while (i < trace.size() && std::isnan(trace[i]))
        ++i;
    return i;
}

TEST(Encoding, FactorMenuIsGeometricAndCovers)
{
    const auto menu = factorMenu(512);
    EXPECT_EQ(menu.front(), 1);
    EXPECT_EQ(menu.back(), 512);
    for (size_t i = 1; i + 1 < menu.size(); ++i)
        EXPECT_EQ(menu[i], 2 * menu[i - 1]);
    // Non-power-of-two extents keep the exact extent as last choice.
    const auto menu196 = factorMenu(196);
    EXPECT_EQ(menu196.back(), 196);
}

TEST(Encoding, AttentionSpaceStructure)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const MappingSpace space = makeAttentionSpace(w, edge);
    EXPECT_EQ(space.structuralKnobs().size(), 3u);
    EXPECT_EQ(space.factorKnobs().size(), 4u);
    EXPECT_EQ(space.structuralSpaceSize(), 8);
    EXPECT_GT(space.factorSpaceSize(), 100);
    // Default choices build an evaluable tree.
    const AnalysisTree tree = space.build(space.defaultChoices());
    EXPECT_TRUE(tree.hasRoot());
}

TEST(Encoding, ConvSpaceStructure)
{
    const Workload w = buildConvChain(convChainShape("CC3"));
    const ArchSpec cloud = makeCloudArch();
    const MappingSpace space = makeConvChainSpace(w, cloud);
    EXPECT_EQ(space.structuralKnobs().size(), 2u);
    EXPECT_EQ(space.factorKnobs().size(), 3u);
    const AnalysisTree tree = space.build(space.defaultChoices());
    EXPECT_TRUE(tree.hasRoot());
}

/** Validation errors only (V305-style advisories are prefixed). */
std::vector<std::string>
validationErrors(const AnalysisTree& tree, const ArchSpec& spec)
{
    std::vector<std::string> errors;
    for (const std::string& p : validateTree(tree, &spec)) {
        if (p.rfind("warn: ", 0) != 0)
            errors.push_back(p);
    }
    return errors;
}

TEST(Encoding, ChainSpaceStructureOnFig4Workload)
{
    const Workload w = loadWorkloadSpecOrDie(
        std::string(TILEFLOW_SPECS_DIR) + "/fig4.wl");
    const ArchSpec edge = makeEdgeArch();

    // fig4 shares i and l across its three ops; k is blocked (op A
    // reduces it and produces an intermediate), j is private to C.
    const std::vector<DimId> shared = chainSharedDims(w);
    ASSERT_EQ(shared.size(), 2u);
    for (DimId d : shared)
        EXPECT_TRUE(w.dim(d).name == "i" || w.dim(d).name == "l");

    const MappingSpace space = makeChainSpace(w, edge);
    EXPECT_EQ(space.structuralKnobs().size(), 3u);
    EXPECT_EQ(space.factorKnobs().size(), shared.size());

    // Every structural combination must build a validation-clean tree
    // at both the smallest and the largest tiling choices.
    for (int fused : {0, 1}) {
        for (int pipeline : {0, 1}) {
            for (int cores : {0, 1}) {
                for (bool max_factors : {false, true}) {
                    std::vector<int64_t> c = {fused, pipeline, cores};
                    for (size_t k : space.factorKnobs()) {
                        const auto& menu = space.knobs()[k].choices;
                        c.push_back(max_factors ? menu.back()
                                                : menu.front());
                    }
                    const AnalysisTree tree = space.build(c);
                    EXPECT_TRUE(validationErrors(tree, edge).empty())
                        << "fused=" << fused << " pipe=" << pipeline
                        << " cores=" << cores << " max=" << max_factors;
                }
            }
        }
    }
}

TEST(Mapper, ChainSpaceSearchFindsValidFig4Mapping)
{
    const Workload w = loadWorkloadSpecOrDie(
        std::string(TILEFLOW_SPECS_DIR) + "/fig4.wl");
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = makeChainSpace(w, edge);

    MapperConfig cfg;
    cfg.rounds = 2;
    cfg.population = 4;
    cfg.tilingSamples = 8;
    cfg.seed = 11;
    cfg.threads = 1;
    const MapperResult result = exploreSpace(model, space, cfg);

    ASSERT_TRUE(result.found);
    EXPECT_GT(result.evaluations, 0);
    EXPECT_TRUE(std::isfinite(result.bestCycles));
    EXPECT_GT(result.bestCycles, 0.0);
    EXPECT_TRUE(validationErrors(result.bestTree, edge).empty());
}

TEST(Mcts, FindsValidMappingAndImproves)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionTilingSpace(w, edge);
    Rng rng(42);
    MctsTuner tuner(model, space, rng);
    const MctsResult r = tuner.tune(space.defaultChoices(), 150);
    ASSERT_TRUE(r.found);
    EXPECT_GT(r.bestCycles, 0.0);
    // Trace is NaN until the first valid mapping, then monotone
    // non-increasing.
    const size_t first = firstValid(r.trace);
    ASSERT_LT(first, r.trace.size());
    for (size_t i = first + 1; i < r.trace.size(); ++i)
        EXPECT_LE(r.trace[i], r.trace[i - 1]);
    // The best found must beat the first valid sample (search works).
    EXPECT_LE(r.bestCycles, r.trace[first]);
}

TEST(Mcts, DeterministicForFixedSeed)
{
    const Workload w = buildAttention(attentionShape("ViT/16-B"),
                                      false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionTilingSpace(w, edge);
    Rng rng1(7), rng2(7);
    const MctsResult a = MctsTuner(model, space, rng1)
                             .tune(space.defaultChoices(), 60);
    const MctsResult b = MctsTuner(model, space, rng2)
                             .tune(space.defaultChoices(), 60);
    EXPECT_EQ(a.bestChoices, b.bestChoices);
    EXPECT_DOUBLE_EQ(a.bestCycles, b.bestCycles);
}

TEST(Genetic, ExploresStructureAndConverges)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionSpace(w, edge);
    GeneticConfig cfg;
    cfg.generations = 5;
    cfg.populationSize = 6;
    cfg.mctsSamplesPerIndividual = 20;
    GeneticMapper ga(model, space, cfg);
    const GeneticResult r = ga.run();
    ASSERT_TRUE(r.best.valid);
    EXPECT_EQ(r.trace.size(), 5u);
    const size_t first = firstValid(r.trace);
    ASSERT_LT(first, r.trace.size());
    for (size_t i = first + 1; i < r.trace.size(); ++i)
        EXPECT_LE(r.trace[i], r.trace[i - 1]);
    // Accounting counts evaluator calls, which memoization keeps at or
    // below the nominal sample budget.
    EXPECT_GT(r.evaluations, 0);
    EXPECT_LE(r.evaluations, 5 * 6 * 20);
    // Within-batch duplicates count as misses but evaluate once.
    EXPECT_LE(uint64_t(r.evaluations), r.cacheMisses);
}

TEST(Mapper, RediscoversTileFlowDataflow)
{
    // The headline claim: exploring the 3D space finds a dataflow at
    // least as good as every canned reference (and in particular the
    // TileFlow dataflow, which the canned TileFlowDF represents).
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionSpace(w, edge);
    MapperConfig cfg;
    cfg.rounds = 8;
    cfg.population = 8;
    cfg.tilingSamples = 30;
    const MapperResult r = exploreSpace(model, space, cfg);
    ASSERT_TRUE(r.found);
    for (AttentionDataflow df : mainAttentionDataflows()) {
        const EvalResult ref =
            model.evaluate(buildAttentionDataflow(w, edge, df));
        if (ref.valid) {
            EXPECT_LE(r.bestCycles, ref.cycles * 1.001)
                << attentionDataflowName(df);
        }
    }
}

TEST(Mapper, TilingOnlyExplorationMatchesFullSpaceOrBetter)
{
    const Workload w = buildAttention(attentionShape("ViT/14-B"),
                                      false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace tiling = makeAttentionTilingSpace(w, edge);
    const MapperResult r = exploreTiling(model, tiling, 200);
    ASSERT_TRUE(r.found);
    // The tiling space fixes the TileFlow structure; the result must
    // beat plain FLAT-HGran.
    const EvalResult flat = model.evaluate(buildAttentionDataflow(
        w, edge, AttentionDataflow::FlatHGran));
    EXPECT_LE(r.bestCycles, flat.cycles * 1.001);
}

TEST(Mapper, BitIdenticalAcrossThreadCounts)
{
    // The pipeline's determinism contract: per-individual RNG streams
    // plus serial selection/backprop make the result independent of
    // how evaluations are scheduled across workers.
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionSpace(w, edge);
    MapperConfig cfg;
    cfg.rounds = 4;
    cfg.population = 6;
    cfg.tilingSamples = 20;
    cfg.seed = 1234;

    cfg.threads = 1;
    const MapperResult serial = exploreSpace(model, space, cfg);
    cfg.threads = 4;
    const MapperResult par4 = exploreSpace(model, space, cfg);
    cfg.threads = 8;
    const MapperResult par8 = exploreSpace(model, space, cfg);

    ASSERT_TRUE(serial.found);
    ASSERT_TRUE(par4.found);
    ASSERT_TRUE(par8.found);
    EXPECT_EQ(serial.bestCycles, par4.bestCycles);
    EXPECT_EQ(serial.bestCycles, par8.bestCycles);
    EXPECT_EQ(serial.bestChoices, par4.bestChoices);
    EXPECT_EQ(serial.bestChoices, par8.bestChoices);
    ASSERT_EQ(serial.trace.size(), par8.trace.size());
    for (size_t i = 0; i < serial.trace.size(); ++i) {
        if (std::isnan(serial.trace[i]))
            EXPECT_TRUE(std::isnan(par8.trace[i]));
        else
            EXPECT_EQ(serial.trace[i], par8.trace[i]);
    }
}

/**
 * The search under one-entry cache caps, where both caches evict on
 * nearly every insert (the name is from the deleted memory budget,
 * whose soft pressure shrank the caches; a one-entry cap is that
 * pressure at its limit). Eviction changes hit rates (`evaluations`
 * may grow, as evicted entries are recomputed), never the search's
 * outcome: best mapping, cost, trace and failures are bit-identical.
 */
TEST(MemBudget, SoftPressureKeepsSearchResultsIdentical)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionSpace(w, edge);
    MapperConfig cfg;
    cfg.rounds = 3;
    cfg.population = 6;
    cfg.tilingSamples = 12;
    cfg.seed = 77;
    cfg.threads = 1;

    const MapperResult reference = exploreSpace(model, space, cfg);
    ASSERT_TRUE(reference.found);

    const MetricsRegistry& m = MetricsRegistry::global();
    const uint64_t eval_evictions = m.counterValue("evalcache.evictions");
    const uint64_t subtree_evictions =
        m.counterValue("analysis.subtree_evictions");
    cfg.evalCacheCap = 1;
    cfg.subtreeCacheCap = 1;
    const MapperResult capped = exploreSpace(model, space, cfg);
    EXPECT_GT(m.counterValue("evalcache.evictions"), eval_evictions);
    EXPECT_GT(m.counterValue("analysis.subtree_evictions"),
              subtree_evictions);
    ASSERT_TRUE(capped.found);
    EXPECT_EQ(reference.bestCycles, capped.bestCycles);
    EXPECT_EQ(reference.bestChoices, capped.bestChoices);
    EXPECT_EQ(reference.failureHistogram, capped.failureHistogram);
    EXPECT_GE(capped.evaluations, reference.evaluations);
    ASSERT_EQ(reference.trace.size(), capped.trace.size());
    for (size_t i = 0; i < reference.trace.size(); ++i) {
        if (std::isnan(reference.trace[i]))
            EXPECT_TRUE(std::isnan(capped.trace[i]));
        else
            EXPECT_EQ(reference.trace[i], capped.trace[i]);
    }
}

TEST(Mcts, BatchedTuningDeterministicAcrossPoolSizes)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionTilingSpace(w, edge);

    auto run = [&](size_t pool_size) {
        ThreadPool pool(pool_size);
        EvalCache cache;
        Rng rng(99);
        MctsTuner tuner(model, space, rng);
        tuner.setPool(&pool);
        tuner.setCache(&cache);
        tuner.setBatch(8);
        return tuner.tune(space.defaultChoices(), 120);
    };
    const MctsResult one = run(1);
    const MctsResult four = run(4);
    ASSERT_TRUE(one.found);
    EXPECT_EQ(one.bestChoices, four.bestChoices);
    EXPECT_EQ(one.bestCycles, four.bestCycles);
    // One tuner resolves its cache serially, so even the accounting
    // is reproducible across pool sizes.
    EXPECT_EQ(one.evaluations, four.evaluations);
}

TEST(Mapper, EvalCacheMemoizesRepeatedSamples)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionTilingSpace(w, edge);
    const int samples = 600;
    const MapperResult r = exploreTiling(model, space, samples);
    ASSERT_TRUE(r.found);
    // Every sample consults the cache exactly once...
    EXPECT_EQ(r.cacheHits + r.cacheMisses, uint64_t(samples));
    // ...resampled mappings hit instead of re-running the analysis...
    EXPECT_GT(r.cacheHits, 0u);
    // ...and `evaluations` counts evaluator calls, not samples.
    EXPECT_GT(r.evaluations, 0);
    EXPECT_LE(uint64_t(r.evaluations), r.cacheMisses);
    EXPECT_LT(r.evaluations, samples);
}

TEST(Mcts, EvaluationsEqualDistinctEvaluatorCalls)
{
    // Each evaluator call inserts exactly one new key, so the count
    // must equal the number of memoized mappings.
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionTilingSpace(w, edge);
    EvalCache cache;
    Rng rng(42);
    MctsTuner tuner(model, space, rng);
    tuner.setCache(&cache);
    tuner.setBatch(8);
    const MctsResult r = tuner.tune(space.defaultChoices(), 300);
    EXPECT_EQ(size_t(r.evaluations), cache.size());
    EXPECT_LT(r.evaluations, 300);
}

TEST(Mapper, NoFactorKnobPathCountsOneEvaluation)
{
    // Regression: exploreTiling used to report `evaluations = samples`
    // even when the tuner's no-knob early path evaluated exactly once.
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace fixed({}, [&](const std::vector<int64_t>&) {
        return buildAttentionDataflow(w, edge,
                                      AttentionDataflow::TileFlowDF);
    });
    const MapperResult r = exploreTiling(model, fixed, 50);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.evaluations, 1);
    EXPECT_EQ(r.trace.size(), 1u);
}

TEST(Mapper, NoFactorKnobPathEvaluatesOverABoundOnlyEntry)
{
    // The no-factor path never prunes, so a bound-only entry for its
    // base mapping is a miss: the base is evaluated and its full
    // verdict replaces the bound.
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace fixed({}, [&](const std::vector<int64_t>&) {
        return buildAttentionDataflow(w, edge,
                                      AttentionDataflow::TileFlowDF);
    });
    EvalCache cache;
    CachedEval bound;
    bound.boundOnly = true;
    bound.boundCycles = 1.0;
    cache.insert({}, bound);

    Rng rng(3);
    MctsTuner tuner(model, fixed, rng);
    tuner.setCache(&cache);
    const MctsResult r = tuner.tune({}, 10);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.evaluations, 1);
    EXPECT_EQ(r.cacheHits, 0u);
    EXPECT_EQ(r.cacheMisses, 1u);
    EXPECT_EQ(r.bestCycles, model.evaluate(fixed.build({})).cycles);
    const std::optional<CachedEval> now = cache.lookup({});
    ASSERT_TRUE(now.has_value());
    EXPECT_FALSE(now->boundOnly);
    EXPECT_EQ(now->cycles, r.bestCycles);
}

TEST(EvalCache, BoundOnlyEntriesAreMissesAndYieldToFullVerdicts)
{
    MetricsRegistry& metrics = MetricsRegistry::global();
    const uint64_t inserted0 =
        metrics.counterValue("evalcache.bytes_inserted");
    const uint64_t evicted0 =
        metrics.counterValue("evalcache.bytes_evicted");
    const double gauge0 = metrics.gauge("evalcache.bytes").value();
    {
        EvalCache cache;
        const std::vector<int64_t> key{4, 2};
        CachedEval bound;
        bound.boundOnly = true;
        bound.boundCycles = 123.0;
        CachedEval reject = bound;
        reject.capacityReject = true;
        const CachedEval full{true, 456.0, false, ""};

        // A bound-only lookup returns the bound but counts a miss.
        cache.insert(key, bound);
        std::optional<CachedEval> got = cache.lookup(key);
        ASSERT_TRUE(got.has_value());
        EXPECT_TRUE(got->boundOnly);
        EXPECT_EQ(got->boundCycles, 123.0);
        EXPECT_EQ(cache.hits(), 0u);
        EXPECT_EQ(cache.misses(), 1u);

        // A bound may replace a bound (capacity status learned)...
        cache.insert(key, reject);
        got = cache.lookup(key);
        ASSERT_TRUE(got.has_value());
        EXPECT_TRUE(got->capacityReject);

        // ...a full verdict always replaces a bound...
        cache.insert(key, full);
        got = cache.lookup(key);
        ASSERT_TRUE(got.has_value());
        EXPECT_FALSE(got->boundOnly);
        EXPECT_EQ(got->cycles, 456.0);
        EXPECT_EQ(cache.hits(), 1u);

        // ...and a bound never replaces a full verdict.
        cache.insert(key, bound);
        got = cache.lookup(key);
        ASSERT_TRUE(got.has_value());
        EXPECT_FALSE(got->boundOnly);
        EXPECT_EQ(got->cycles, 456.0);

        EXPECT_EQ(cache.size(), 1u);
        EXPECT_EQ(cache.bytes(), EvalCache::entryBytes(key, full));
        // The process gauge stays exactly inserted - evicted.
        const uint64_t inserted =
            metrics.counterValue("evalcache.bytes_inserted") - inserted0;
        const uint64_t evicted =
            metrics.counterValue("evalcache.bytes_evicted") - evicted0;
        EXPECT_EQ(inserted - evicted, cache.bytes());
        EXPECT_EQ(metrics.gauge("evalcache.bytes").value() - gauge0,
                  double(cache.bytes()));
    }
    EXPECT_EQ(metrics.gauge("evalcache.bytes").value(), gauge0);
}

TEST(Mapper, GeneticNoFactorKnobAccountingIsReal)
{
    // Regression: the GA used to add mctsSamplesPerIndividual per
    // individual regardless of what the tuner actually ran.
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace fixed({}, [&](const std::vector<int64_t>&) {
        return buildAttentionDataflow(w, edge,
                                      AttentionDataflow::TileFlowDF);
    });
    MapperConfig cfg;
    cfg.rounds = 3;
    cfg.population = 4;
    cfg.tilingSamples = 25;
    const MapperResult r = exploreSpace(model, fixed, cfg);
    ASSERT_TRUE(r.found);
    // One distinct mapping exists; everything beyond the first (or
    // first concurrent wave of) evaluation(s) is a cache hit.
    EXPECT_GE(r.evaluations, 1);
    EXPECT_LE(r.evaluations, cfg.population);
}

TEST(Mapper, TracesCarryNoSentinelValues)
{
    // Regression: DBL_MAX used to leak into traces (and bestCycles)
    // before the first valid mapping, poisoning bench CSVs.
    const Workload w = buildAttention(attentionShape("Bert-B"), false);
    ArchSpec tiny = makeEdgeArch(16 * 1024); // 16KB L1
    const Evaluator model(w, tiny);
    const MappingSpace space = makeAttentionSpace(w, tiny);
    MapperConfig cfg;
    cfg.rounds = 2;
    cfg.population = 4;
    cfg.tilingSamples = 10;
    const MapperResult r = exploreSpace(model, space, cfg);
    for (double t : r.trace)
        EXPECT_TRUE(std::isnan(t) || t < 1e300) << t;
    if (!r.found) {
        EXPECT_EQ(r.bestCycles, 0.0);
        for (double t : r.trace)
            EXPECT_TRUE(std::isnan(t));
    }
}

TEST(Mapper, InvalidStructuresPenalizedNotFatal)
{
    // Force a space where many structural choices are invalid (tiny
    // architecture); the mapper must still terminate with something.
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    ArchSpec tiny = makeEdgeArch(64 * 1024); // 64KB L1
    const Evaluator model(w, tiny);
    const MappingSpace space = makeAttentionSpace(w, tiny);
    MapperConfig cfg;
    cfg.rounds = 3;
    cfg.population = 4;
    cfg.tilingSamples = 15;
    EXPECT_NO_THROW({
        const MapperResult r = exploreSpace(model, space, cfg);
        (void)r;
    });
}

// -------------------------------------------------------------------
// Searches share one persistent worker pool per worker count
// -------------------------------------------------------------------

MapperConfig
smallSearch(uint64_t seed, int threads)
{
    MapperConfig cfg;
    cfg.rounds = 2;
    cfg.population = 4;
    cfg.tilingSamples = 6;
    cfg.seed = seed;
    cfg.threads = threads;
    return cfg;
}

/** Field-for-field (cycles bitwise) equality of two guard verdicts. */
void
expectSameVerdict(const CachedEval& got, const CachedEval& want,
                  const std::string& where)
{
    EXPECT_EQ(got.valid, want.valid) << where;
    EXPECT_EQ(std::memcmp(&got.cycles, &want.cycles, sizeof got.cycles),
              0)
        << where << ": " << got.cycles << " vs " << want.cycles;
    EXPECT_EQ(got.failed, want.failed) << where;
    EXPECT_EQ(got.failReason, want.failReason) << where;
    EXPECT_EQ(got.pruned, want.pruned) << where;
    EXPECT_EQ(got.boundOnly, want.boundOnly) << where;
    EXPECT_EQ(got.capacityReject, want.capacityReject) << where;
    EXPECT_EQ(std::memcmp(&got.boundCycles, &want.boundCycles,
                          sizeof got.boundCycles),
              0)
        << where << ": " << got.boundCycles << " vs " << want.boundCycles;
}

/**
 * guardedEvaluate with a SubtreeCache returns the cache-less verdict
 * field for field, over uniform draws, at a +inf threshold (only the
 * capacity screen can prune) and at the candidate's exact cycles (a
 * tight roofline prunes). Each draw is checked twice, so the second
 * pass runs warm.
 */
void
expectGuardCacheInvariant(const Workload& workload, const ArchSpec& spec,
                          const MappingSpace& space, uint64_t seed)
{
    Counter& memoizedEvals =
        MetricsRegistry::global().counter("analysis.incremental_evals");
    const Evaluator model(workload, spec);
    SubtreeCache cache;
    const LowerBoundEvaluator lb(model);
    Rng rng(seed);
    int valid = 0;
    int pruned = 0;
    for (int draw = 0; draw < 24; ++draw) {
        std::vector<int64_t> choices;
        for (const Knob& knob : space.knobs())
            choices.push_back(rng.choice(knob.choices));
        const CachedEval full = guardedEvaluate(model, space, choices);
        const uint64_t memoized = memoizedEvals.value();
        expectSameVerdict(
            guardedEvaluate(model, space, choices, nullptr, &cache), full,
            "no prune, draw " + std::to_string(draw));
        EXPECT_EQ(memoizedEvals.value() - memoized, 1u)
            << "the guard did not evaluate through its cache";
        valid += full.valid;

        std::vector<double> thresholds{
            std::numeric_limits<double>::infinity()};
        if (full.valid)
            thresholds.push_back(full.cycles);
        for (const double threshold : thresholds) {
            for (int pass = 0; pass < 2; ++pass) {
                const BoundPrune prune{&lb, threshold};
                const CachedEval want =
                    guardedEvaluate(model, space, choices, &prune);
                expectSameVerdict(
                    guardedEvaluate(model, space, choices, &prune, &cache),
                    want,
                    "draw " + std::to_string(draw) + " threshold " +
                        std::to_string(threshold) + " pass " +
                        std::to_string(pass));
                pruned += want.pruned;
            }
        }
    }
    EXPECT_GT(valid, 0) << "no draw was valid";
    EXPECT_GT(pruned, 0) << "no threshold pruned";
    EXPECT_GT(cache.hits(), 0u) << "the cache never served a partial";
}

TEST(MapperGuard, SubtreeCacheLeavesEveryVerdictUnchanged)
{
    const Workload attn = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    expectGuardCacheInvariant(attn, edge, makeAttentionSpace(attn, edge),
                              0x6A12Du);

    const Workload cc1 = buildConvChain(convChainShape("CC1"));
    expectGuardCacheInvariant(cc1, edge, makeConvChainSpace(cc1, edge),
                              0x6A12Eu);
}

TEST(MapperGuard, SearchesEvaluateThroughTheirSubtreeCache)
{
    // exploreSpace and exploreTiling hand their SubtreeCache to every
    // evaluation: none lands on the cache-less counter.
    MetricsRegistry& reg = MetricsRegistry::global();
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    MapperConfig cfg;
    cfg.rounds = 2;
    cfg.population = 4;
    cfg.tilingSamples = 8;
    cfg.threads = 1;

    const uint64_t full_before = reg.counterValue("analysis.evaluations");
    const uint64_t memo_before =
        reg.counterValue("analysis.incremental_evals");
    const MapperResult searched =
        exploreSpace(model, makeAttentionSpace(w, edge), cfg);
    const MapperResult tiled = exploreTiling(
        model, makeAttentionTilingSpace(w, edge), 16, 7, cfg);
    ASSERT_TRUE(searched.found);
    ASSERT_TRUE(tiled.found);
    EXPECT_EQ(reg.counterValue("analysis.evaluations"), full_before);
    EXPECT_GT(reg.counterValue("analysis.incremental_evals"), memo_before);
}

TEST(MapperPool, SearchesReuseOnePoolOfWorkers)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionSpace(w, edge);
    const int threads = 3;

    std::vector<double> best;
    const std::string path = testing::TempDir() + "pool_reuse_trace.json";
    {
        const bool before = tracingEnabled();
        setTracingEnabled(true);
        clearTrace();
        for (uint64_t i = 0; i < 5; ++i) {
            const MapperResult r =
                exploreSpace(model, space, smallSearch(40 + i, threads));
            ASSERT_TRUE(r.found);
            best.push_back(r.bestCycles);
        }
        ASSERT_TRUE(writeChromeTrace(path));
        clearTrace();
        setTracingEnabled(before);
    }

    // Every event comes from this thread or one of the pool's workers:
    // a pool per search would add `threads` new tids per search.
    std::ifstream in(path);
    const std::string json((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    const std::string key = "\"tid\":";
    std::set<long> tids;
    for (size_t at = json.find(key); at != std::string::npos;
         at = json.find(key, at + key.size())) {
        tids.insert(std::strtol(json.c_str() + at + key.size(), nullptr, 10));
    }
    EXPECT_GE(tids.size(), 2u);
    EXPECT_LE(tids.size(), size_t(threads) + 1);

    for (uint64_t i = 0; i < 5; ++i) {
        const MapperResult serial =
            exploreSpace(model, space, smallSearch(40 + i, 1));
        EXPECT_EQ(serial.bestCycles, best[i]) << "search " << i;
    }
}

TEST(MapperPool, ConcurrentSearchesOnOnePoolBothFinish)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionSpace(w, edge);

    const double want_a = exploreSpace(model, space, smallSearch(7, 1))
                              .bestCycles;
    const double want_b = exploreSpace(model, space, smallSearch(8, 1))
                              .bestCycles;
    // 0 until the search finds a mapping.
    double got_a = 0.0;
    double got_b = 0.0;
    std::thread a([&] {
        got_a = exploreSpace(model, space, smallSearch(7, 2)).bestCycles;
    });
    std::thread b([&] {
        got_b = exploreSpace(model, space, smallSearch(8, 2)).bestCycles;
    });
    a.join();
    b.join();
    EXPECT_GT(want_a, 0.0);
    EXPECT_EQ(got_a, want_a);
    EXPECT_EQ(got_b, want_b);
}

} // namespace
} // namespace tileflow
