/**
 * @file
 * Fault-tolerance tests: the seeded fault injector, the hardened
 * evaluation boundary (guardedEvaluate + tagged cache entries), OOM as
 * a tagged-infeasible candidate and as the loader's F604 diagnostic
 * (DESIGN.md §11), exact cache byte accounting, the GA's structural
 * pre-screen, and budget / cancellation handling.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include "analysis/faultinject.hpp"
#include "analysis/subtreecache.hpp"
#include "arch/presets.hpp"
#include "common/diag.hpp"
#include "common/logging.hpp"
#include "common/stop.hpp"
#include "common/telemetry.hpp"
#include "dataflows/attention.hpp"
#include "frontend/loader.hpp"
#include "ir/shapes.hpp"
#include "mapper/mapper.hpp"

namespace tileflow {
namespace {

std::shared_ptr<const FaultInjector>
injector(double throw_frac, double nan_frac, uint64_t seed = 7)
{
    return std::make_shared<FaultInjector>(throw_frac, nan_frac, seed);
}

/** An injector that only throws std::bad_alloc (`oom=`). */
std::shared_ptr<const FaultInjector>
oomInjector(double oom_frac, uint64_t seed)
{
    return std::make_shared<FaultInjector>(0.0, 0.0, seed, oom_frac);
}

uint64_t
counterValue(const char* name)
{
    return MetricsRegistry::global().counter(name).value();
}

/** A space whose builder throws for one structural choice. */
MappingSpace
brokenStructureSpace(const Workload& w, const ArchSpec& edge)
{
    std::vector<Knob> knobs;
    knobs.push_back({"broken", {0, 1}, true});
    knobs.push_back({"tB", {1, 2, 4}, false});
    return MappingSpace(
        std::move(knobs), [&w, &edge](const std::vector<int64_t>& c) {
            if (c[0] == 1)
                fatal("broken structural choice");
            return buildAttentionDataflow(
                w, edge, AttentionDataflow::TileFlowDF);
        });
}

TEST(FaultInjector, DeterministicAndProportional)
{
    const FaultInjector inj(0.2, 0.1, 42);
    int throws = 0, nans = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const FaultKind kind = inj.decideKey(uint64_t(i));
        // Pure function of (seed, key).
        EXPECT_EQ(kind, inj.decideKey(uint64_t(i)));
        throws += kind == FaultKind::Throw;
        nans += kind == FaultKind::Nan;
    }
    EXPECT_NEAR(double(throws) / n, 0.2, 0.01);
    EXPECT_NEAR(double(nans) / n, 0.1, 0.01);

    // A different seed draws a different fault pattern.
    const FaultInjector other(0.2, 0.1, 43);
    int differing = 0;
    for (int i = 0; i < 1000; ++i)
        differing += inj.decideKey(uint64_t(i)) !=
                     other.decideKey(uint64_t(i));
    EXPECT_GT(differing, 0);
}

TEST(FaultInjector, FractionsClampedAndCapped)
{
    const FaultInjector inj(0.8, 0.8, 1);
    EXPECT_DOUBLE_EQ(inj.throwFraction() + inj.nanFraction(), 1.0);
    const FaultInjector neg(-1.0, 2.0, 1);
    EXPECT_DOUBLE_EQ(neg.throwFraction(), 0.0);
    EXPECT_DOUBLE_EQ(neg.nanFraction(), 1.0);
}

TEST(FaultInjector, FromEnvParsing)
{
    ::setenv("TILEFLOW_FAULT_INJECT", "throw=0.25,nan=0.5,seed=9", 1);
    auto inj = FaultInjector::fromEnv();
    ASSERT_NE(inj, nullptr);
    EXPECT_DOUBLE_EQ(inj->throwFraction(), 0.25);
    EXPECT_DOUBLE_EQ(inj->nanFraction(), 0.5);
    EXPECT_EQ(inj->seed(), 9u);

    // Both fractions zero: injection disabled.
    ::setenv("TILEFLOW_FAULT_INJECT", "throw=0,nan=0", 1);
    EXPECT_EQ(FaultInjector::fromEnv(), nullptr);

    ::unsetenv("TILEFLOW_FAULT_INJECT");
    EXPECT_EQ(FaultInjector::fromEnv(), nullptr);
}

TEST(FaultInjector, EvaluatorInjectsThrowAndNan)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const AnalysisTree tree =
        buildAttentionDataflow(w, edge, AttentionDataflow::TileFlowDF);

    Evaluator model(w, edge);
    model.setFaultInjector(injector(1.0, 0.0));
    EXPECT_THROW(model.evaluate(tree), FatalError);

    model.setFaultInjector(injector(0.0, 1.0));
    const EvalResult poisoned = model.evaluate(tree);
    EXPECT_TRUE(poisoned.valid);
    EXPECT_TRUE(std::isnan(poisoned.cycles));

    model.setFaultInjector(nullptr);
    EXPECT_TRUE(std::isfinite(model.evaluate(tree).cycles));
}

// -------------------------------------------------------------------
// `oom=`: seeded std::bad_alloc on the same draw
// -------------------------------------------------------------------

TEST(AllocFault, DecisionsAreDeterministicAndRateBounded)
{
    const FaultInjector always(0.0, 0.0, 42, 1.0);
    const FaultInjector some(0.0, 0.0, 42, 0.25);

    int faulted = 0;
    for (uint64_t key = 0; key < 4000; ++key) {
        EXPECT_EQ(always.decideKey(key), FaultKind::Oom);
        // Purely a function of (seed, key): repeatable per key.
        EXPECT_EQ(some.decideKey(key), some.decideKey(key));
        if (some.decideKey(key) == FaultKind::Oom)
            ++faulted;
    }
    // Law of large numbers with a wide margin: 25% ± 5%.
    EXPECT_GT(faulted, 800);
    EXPECT_LT(faulted, 1200);

    // A different seed draws a different fault set.
    const FaultInjector other(0.0, 0.0, 43, 0.25);
    int differs = 0;
    for (uint64_t key = 0; key < 4000; ++key)
        if (some.decideKey(key) != other.decideKey(key))
            ++differs;
    EXPECT_GT(differs, 0);

    // `oom` takes the slice after throw and nan: adding it turns only
    // clean keys into faults, so the throw and NaN sets are unchanged.
    const FaultInjector base(0.1, 0.05, 7);
    const FaultInjector with_oom(0.1, 0.05, 7, 0.05);
    int ooms = 0;
    for (uint64_t key = 0; key < 4000; ++key) {
        const FaultKind was = base.decideKey(key);
        const FaultKind now = with_oom.decideKey(key);
        if (was == FaultKind::None)
            EXPECT_TRUE(now == FaultKind::None || now == FaultKind::Oom);
        else
            EXPECT_EQ(now, was) << "key " << key;
        ooms += now == FaultKind::Oom;
    }
    EXPECT_GT(ooms, 0);
}

TEST(AllocFault, RateIsClampedToUnitInterval)
{
    EXPECT_EQ(FaultInjector(0.0, 0.0, 1, 7.0).oomFraction(), 1.0);
    EXPECT_EQ(FaultInjector(0.0, 0.0, 1, -3.0).oomFraction(), 0.0);
    // The three slices never sum past 1; oom is the one cut short.
    const FaultInjector capped(0.5, 0.3, 1, 0.5);
    EXPECT_DOUBLE_EQ(capped.throwFraction(), 0.5);
    EXPECT_DOUBLE_EQ(capped.nanFraction(), 0.3);
    EXPECT_DOUBLE_EQ(capped.oomFraction(), 0.2);
}

TEST(AllocFault, TextKeyIsStableAndDiscriminates)
{
    const std::string a = "arch { level L0 }";
    const std::string b = "arch { level L1 }";
    EXPECT_EQ(FaultInjector::textKey(a), FaultInjector::textKey(a));
    EXPECT_NE(FaultInjector::textKey(a), FaultInjector::textKey(b));
    // FNV-1a offset basis for the empty string: a fixed, documented
    // anchor so the keying never drifts across refactors (faults must
    // replay identically in resumed runs).
    EXPECT_EQ(FaultInjector::textKey(""), 0xcbf29ce484222325ULL);
}

TEST(AllocFault, FromEnvParsesRateAndSeed)
{
    ::setenv("TILEFLOW_FAULT_INJECT", "oom=0.5,seed=77", 1);
    const auto inj = FaultInjector::fromEnv();
    ASSERT_NE(inj, nullptr);
    EXPECT_EQ(inj->oomFraction(), 0.5);
    EXPECT_EQ(inj->throwFraction(), 0.0);
    EXPECT_EQ(inj->nanFraction(), 0.0);
    EXPECT_EQ(inj->seed(), 77u);

    ::setenv("TILEFLOW_FAULT_INJECT", "oom=0", 1);
    EXPECT_EQ(FaultInjector::fromEnv(), nullptr);

    ::unsetenv("TILEFLOW_FAULT_INJECT");
    EXPECT_EQ(FaultInjector::fromEnv(), nullptr);
}

TEST(AllocFault, GuardedEvaluateTagsInjectedOomAsInfeasible)
{
    const uint64_t oom_before = counterValue("mem.oom_failed_evals");
    const uint64_t faults_before = counterValue("mem.alloc_faults");

    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    Evaluator model(w, edge);
    model.setFaultInjector(oomInjector(1.0, 9));
    const MappingSpace space = makeAttentionSpace(w, edge);

    const CachedEval out =
        guardedEvaluate(model, space, space.defaultChoices());
    EXPECT_FALSE(out.valid);
    EXPECT_TRUE(out.failed);
    EXPECT_EQ(out.failReason, "oom");
    EXPECT_EQ(counterValue("mem.oom_failed_evals"), oom_before + 1);
    EXPECT_EQ(counterValue("mem.alloc_faults"), faults_before + 1);

    // The memoized path hits the same guard the same way.
    SubtreeCache subtrees;
    const CachedEval out2 = guardedEvaluate(
        model, space, space.defaultChoices(), nullptr, &subtrees);
    EXPECT_TRUE(out2.failed);
    EXPECT_EQ(out2.failReason, "oom");
}

TEST(AllocFault, SearchSurvivesSeededOomFaults)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    Evaluator model(w, edge);
    // A 20% fault rate: plenty of candidates die, the search still
    // finds a best mapping and accounts every death in the histogram.
    model.setFaultInjector(oomInjector(0.20, 11));
    const MappingSpace space = makeAttentionSpace(w, edge);

    MapperConfig cfg;
    cfg.rounds = 2;
    cfg.population = 4;
    cfg.tilingSamples = 8;
    cfg.seed = 11;
    cfg.threads = 1;
    const MapperResult result = exploreSpace(model, space, cfg);
    EXPECT_TRUE(result.found);
    ASSERT_NE(result.failureHistogram.find("oom"),
              result.failureHistogram.end());
    EXPECT_GT(result.failureHistogram.at("oom"), 0u);
    EXPECT_TRUE(std::isfinite(result.bestCycles));
}

/**
 * Inner half of the subprocess pair below. FaultInjector::env() is
 * parsed once per process, so the injected-loader path can only be
 * exercised in a process that started with TILEFLOW_FAULT_INJECT set —
 * the outer test re-execs this binary with the variable exported and
 * this filter selected.
 */
TEST(AllocFaultChild, DISABLED_LoaderReportsF604UnderEnvInjector)
{
    ASSERT_NE(FaultInjector::env(), nullptr)
        << "run via AllocFault.LoaderOomBecomesF604Diagnostic";
    const uint64_t faults_before = counterValue("mem.alloc_faults");

    const std::string path = testing::TempDir() + "f604.arch";
    {
        std::ofstream out(path);
        out << "arch f604 { level reg { kind regfile capacity 1024 } }\n";
    }

    DiagnosticEngine diags;
    const auto arch = loadArchSpec(path, diags);
    EXPECT_FALSE(arch.has_value());
    ASSERT_TRUE(diags.hasErrors());
    EXPECT_EQ(diags.diagnostics()[0].code, "F604");
    EXPECT_NE(diags.diagnostics()[0].message.find("out of memory"),
              std::string::npos);
    EXPECT_GT(counterValue("mem.alloc_faults"), faults_before);

    // The workload loader takes the same guard.
    DiagnosticEngine wdiags;
    EXPECT_FALSE(loadWorkloadSpec(path, wdiags).has_value());
    ASSERT_TRUE(wdiags.hasErrors());
    EXPECT_EQ(wdiags.diagnostics()[0].code, "F604");
    std::remove(path.c_str());
}

TEST(AllocFault, LoaderOomBecomesF604Diagnostic)
{
    // Re-exec this test binary with a rate-1.0 `oom` injector in the
    // environment; the child's assertions (above) do the checking.
    char exe[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    ASSERT_GT(n, 0);
    exe[n] = '\0';

    const std::string cmd =
        std::string("TILEFLOW_FAULT_INJECT='oom=1,seed=1' '") + exe +
        "' --gtest_also_run_disabled_tests "
        "--gtest_filter='AllocFaultChild.*' > /dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(Guard, ConvertsThrowToTaggedInfeasible)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    Evaluator model(w, edge);
    model.setFaultInjector(injector(1.0, 0.0));
    const MappingSpace space = makeAttentionTilingSpace(w, edge);

    const CachedEval r =
        guardedEvaluate(model, space, space.defaultChoices());
    EXPECT_FALSE(r.valid);
    EXPECT_TRUE(r.failed);
    EXPECT_NE(r.failReason.find("injected evaluator fault"),
              std::string::npos);
}

TEST(Guard, ConvertsNanToTaggedInfeasible)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    Evaluator model(w, edge);
    model.setFaultInjector(injector(0.0, 1.0));
    const MappingSpace space = makeAttentionTilingSpace(w, edge);

    const CachedEval r =
        guardedEvaluate(model, space, space.defaultChoices());
    EXPECT_FALSE(r.valid);
    EXPECT_TRUE(r.failed);
    EXPECT_NE(r.failReason.find("non-finite"), std::string::npos);
}

TEST(Guard, BuilderThrowIsTaggedInfeasible)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = brokenStructureSpace(w, edge);

    const CachedEval r = guardedEvaluate(model, space, {1, 1});
    EXPECT_TRUE(r.failed);
    EXPECT_EQ(r.failReason, "broken structural choice");
}

TEST(Guard, OrdinaryResultsAreNeverTaggedFailed)
{
    // Without an injector, results are valid or ordinarily invalid
    // (resource violation) but never `failed` — the three states stay
    // distinguishable.
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec tiny = makeEdgeArch(64 * 1024);
    const Evaluator model(w, tiny);
    const MappingSpace space = makeAttentionSpace(w, tiny);

    Rng rng(3);
    for (int i = 0; i < 20; ++i) {
        std::vector<int64_t> choices;
        for (const Knob& k : space.knobs())
            choices.push_back(
                k.choices[rng.uniformInt(0, int(k.choices.size()) - 1)]);
        const CachedEval r = guardedEvaluate(model, space, choices);
        EXPECT_FALSE(r.failed) << r.failReason;
    }
}

TEST(EvalCache, TaggedInfeasibleEntriesAreMemoized)
{
    // With every evaluation throwing, the search memoizes tagged
    // infeasible entries (carrying the reason), not ordinary results,
    // and the histogram counts every failed sample.
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    Evaluator model(w, edge);
    model.setFaultInjector(injector(1.0, 0.0));
    const MappingSpace space = makeAttentionTilingSpace(w, edge);

    EvalCache cache;
    Rng rng(42);
    MctsTuner tuner(model, space, rng);
    tuner.setCache(&cache);
    tuner.setBatch(8);
    const int samples = 120;
    const MctsResult r = tuner.tune(space.defaultChoices(), samples);

    EXPECT_FALSE(r.found);
    EXPECT_EQ(histogramTotal(r.failureHistogram), uint64_t(samples));
    // Each distinct mapping is evaluated exactly once; retries of a
    // crashing candidate are cache hits.
    EXPECT_EQ(size_t(r.evaluations), cache.size());
    EXPECT_LT(r.evaluations, samples);
    cache.forEach(
        [](const std::vector<int64_t>&, const CachedEval& value) {
            EXPECT_TRUE(value.failed);
            EXPECT_FALSE(value.valid);
            EXPECT_FALSE(value.failReason.empty());
        });
}

// -------------------------------------------------------------------
// Byte-exact cache accounting: gauge == inserted − evicted
// -------------------------------------------------------------------

TEST(EvalCache, ByteGaugeIsExact)
{
    Gauge& gauge = MetricsRegistry::global().gauge("evalcache.bytes");
    const double gauge_before = gauge.value();
    const uint64_t ins_before = counterValue("evalcache.bytes_inserted");
    const uint64_t evt_before = counterValue("evalcache.bytes_evicted");

    {
        EvalCache cache(1, 4); // single shard, tight cap → evictions
        CachedEval v;
        v.valid = true;
        v.cycles = 3.0;
        uint64_t expected = 0;
        for (int64_t i = 0; i < 12; ++i) {
            const std::vector<int64_t> key = {i, i + 1, i + 2, i + 3};
            cache.insert(key, v);
            expected += EvalCache::entryBytes(key, v);
        }
        EXPECT_GT(cache.evictions(), 0u);

        // The instance tracks its live bytes exactly, and the global
        // gauge moved by exactly inserted − evicted.
        const uint64_t inserted =
            counterValue("evalcache.bytes_inserted") - ins_before;
        const uint64_t evicted =
            counterValue("evalcache.bytes_evicted") - evt_before;
        EXPECT_EQ(inserted, expected);
        EXPECT_EQ(cache.bytes(), inserted - evicted);
        EXPECT_EQ(uint64_t(gauge.value() - gauge_before),
                  inserted - evicted);
    }

    // Destruction settles the account: a destroyed cache's bytes count
    // as evicted, so the identity holds across the whole process life.
    const uint64_t inserted =
        counterValue("evalcache.bytes_inserted") - ins_before;
    const uint64_t evicted =
        counterValue("evalcache.bytes_evicted") - evt_before;
    EXPECT_EQ(inserted, evicted);
    EXPECT_EQ(gauge.value(), gauge_before);
}

TEST(SubtreeCache, ByteGaugeIsExact)
{
    Gauge& gauge = MetricsRegistry::global().gauge("analysis.subtree_bytes");
    const double gauge_before = gauge.value();
    const uint64_t ins_before =
        counterValue("analysis.subtree_bytes_inserted");
    const uint64_t evt_before =
        counterValue("analysis.subtree_bytes_evicted");

    {
        SubtreeCache cache(1, 4);
        SubtreePartial partial;
        partial.footprintBytes = 99;
        for (uint64_t i = 0; i < 12; ++i)
            cache.insert(SubtreeKey{i, i * 3}, partial);
        EXPECT_GT(cache.evictions(), 0u);

        const uint64_t inserted =
            counterValue("analysis.subtree_bytes_inserted") - ins_before;
        const uint64_t evicted =
            counterValue("analysis.subtree_bytes_evicted") - evt_before;
        EXPECT_EQ(cache.bytes(), inserted - evicted);
        EXPECT_EQ(uint64_t(gauge.value() - gauge_before),
                  inserted - evicted);
    }

    const uint64_t inserted =
        counterValue("analysis.subtree_bytes_inserted") - ins_before;
    const uint64_t evicted =
        counterValue("analysis.subtree_bytes_evicted") - evt_before;
    EXPECT_EQ(inserted, evicted);
    EXPECT_EQ(gauge.value(), gauge_before);
}

TEST(Mapper, FaultInjectedSearchCompletes)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    Evaluator model(w, edge);
    model.setFaultInjector(injector(0.10, 0.05));
    const MappingSpace space = makeAttentionSpace(w, edge);

    MapperConfig cfg;
    cfg.rounds = 5;
    cfg.population = 6;
    cfg.tilingSamples = 20;
    const MapperResult r = exploreSpace(model, space, cfg);

    ASSERT_TRUE(r.found);
    EXPECT_FALSE(r.timedOut);
    EXPECT_GT(r.failedEvaluations, 0u);
    EXPECT_EQ(r.failedEvaluations, histogramTotal(r.failureHistogram));
    bool saw_injected = false;
    for (const auto& [reason, count] : r.failureHistogram) {
        EXPECT_GT(count, 0u);
        saw_injected |=
            reason.find("injected") != std::string::npos ||
            reason.find("non-finite") != std::string::npos;
    }
    EXPECT_TRUE(saw_injected);
}

TEST(Mapper, FaultInjectedSearchBitIdenticalAcrossThreads)
{
    // Fault decisions are keyed on the candidate, not the worker, so
    // the determinism contract survives injection.
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    Evaluator model(w, edge);
    model.setFaultInjector(injector(0.10, 0.05));
    const MappingSpace space = makeAttentionSpace(w, edge);

    MapperConfig cfg;
    cfg.rounds = 4;
    cfg.population = 6;
    cfg.tilingSamples = 20;
    cfg.seed = 555;

    cfg.threads = 1;
    const MapperResult serial = exploreSpace(model, space, cfg);
    cfg.threads = 4;
    const MapperResult par = exploreSpace(model, space, cfg);

    ASSERT_EQ(serial.found, par.found);
    EXPECT_EQ(serial.bestCycles, par.bestCycles);
    EXPECT_EQ(serial.bestChoices, par.bestChoices);
    EXPECT_EQ(serial.failureHistogram, par.failureHistogram);
    ASSERT_EQ(serial.trace.size(), par.trace.size());
    for (size_t i = 0; i < serial.trace.size(); ++i) {
        if (std::isnan(serial.trace[i]))
            EXPECT_TRUE(std::isnan(par.trace[i]));
        else
            EXPECT_EQ(serial.trace[i], par.trace[i]);
    }
}

TEST(Stop, ControlReasons)
{
    const StopControl unlimited;
    EXPECT_EQ(unlimited.stopReason(1 << 30), nullptr);

    CancellationToken token;
    const StopControl cancellable(Deadline(), &token, 0);
    EXPECT_FALSE(cancellable.shouldStop(0));
    token.cancel();
    EXPECT_STREQ(cancellable.stopReason(0), "cancelled");

    const StopControl budgeted(Deadline(), nullptr, 10);
    EXPECT_EQ(budgeted.stopReason(9), nullptr);
    EXPECT_STREQ(budgeted.stopReason(10), "evaluation budget");

    EXPECT_TRUE(Deadline().unlimited());
    EXPECT_TRUE(Deadline::afterMs(0).unlimited());
    EXPECT_FALSE(Deadline::afterMs(0).expired());
    const StopControl dead(Deadline::afterMs(-1000), nullptr, 0);
    EXPECT_EQ(dead.stopReason(0), nullptr);
}

TEST(Stop, EvaluationBudgetBoundsSearch)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionSpace(w, edge);

    MapperConfig cfg;
    cfg.rounds = 20;
    cfg.population = 8;
    cfg.tilingSamples = 50;
    cfg.threads = 1;
    cfg.maxEvaluations = 30;
    const MapperResult r = exploreSpace(model, space, cfg);

    EXPECT_TRUE(r.timedOut);
    EXPECT_EQ(r.stopReason, "evaluation budget");
    // Budgets are polled at batch boundaries: overshoot is bounded by
    // one in-flight batch at a single thread.
    EXPECT_LE(r.evaluations, 30 + cfg.mctsBatch);
    EXPECT_GT(r.evaluations, 0);
}

TEST(Stop, DeadlineReturnsBestSoFarWithoutThrowing)
{
    const Workload w = buildAttention(attentionShape("Bert-B"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionSpace(w, edge);

    MapperConfig cfg;
    cfg.rounds = 1000;
    cfg.population = 8;
    cfg.tilingSamples = 100;
    cfg.timeBudgetMs = 50;
    const MapperResult r = exploreSpace(model, space, cfg);
    EXPECT_TRUE(r.timedOut);
    EXPECT_EQ(r.stopReason, "deadline");
    EXPECT_LT(r.trace.size(), 1000u);
}

TEST(Stop, PreCancelledTokenStopsImmediately)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionSpace(w, edge);

    CancellationToken token;
    token.cancel();
    MapperConfig cfg;
    cfg.cancel = &token;
    const MapperResult r = exploreSpace(model, space, cfg);
    EXPECT_TRUE(r.timedOut);
    EXPECT_EQ(r.stopReason, "cancelled");
    EXPECT_FALSE(r.found);
    EXPECT_EQ(r.evaluations, 0);

    const MappingSpace tiling = makeAttentionTilingSpace(w, edge);
    const MapperResult t = exploreTiling(model, tiling, 100, 1, cfg);
    EXPECT_TRUE(t.timedOut);
    EXPECT_EQ(t.stopReason, "cancelled");
    EXPECT_EQ(t.evaluations, 0);
}

TEST(Genetic, PrescreenRejectsStructurallyBrokenOffspring)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = brokenStructureSpace(w, edge);

    GeneticConfig cfg;
    cfg.generations = 6;
    cfg.populationSize = 8;
    cfg.mctsSamplesPerIndividual = 10;
    cfg.mutationRate = 0.5;
    cfg.seed = 11;

    GeneticMapper ga(model, space, cfg);
    const GeneticResult r = ga.run();
    ASSERT_TRUE(r.best.valid);
    EXPECT_EQ(r.best.choices[0], 0);
    // Offspring drawing the broken structure are rejected by the cheap
    // pre-screen before any evaluation is paid for...
    EXPECT_GT(r.prescreenRejects, 0u);
    // ...while the (unscreened) initial population hits the guarded
    // boundary at runtime and lands in the histogram.
    EXPECT_GT(r.failureHistogram.count("broken structural choice"), 0u);

    // With the pre-screen off, nothing is rejected up front.
    cfg.prescreen = false;
    GeneticMapper raw(model, space, cfg);
    const GeneticResult r2 = raw.run();
    EXPECT_EQ(r2.prescreenRejects, 0u);
    ASSERT_TRUE(r2.best.valid);
}

} // namespace
} // namespace tileflow
