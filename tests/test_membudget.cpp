/**
 * @file
 * Memory-pressure robustness tests (DESIGN.md §11): the MemoryBudget
 * state machine and component registry, byte-exact cache accounting
 * (gauge == inserted − evicted), the seeded allocation-fault injector,
 * OOM-as-tagged-infeasible through guardedEvaluate, the contract that
 * soft pressure never changes computed values (searches and
 * kill+resume runs stay bit-identical while caches shrink under it),
 * and the frontend's F604 out-of-memory diagnostic (exercised in a
 * fresh subprocess so TILEFLOW_ALLOC_FAULT is parsed, not latched).
 *
 * Every test that enables the budget brackets itself with
 * resetForTesting(): the budget is a process-wide singleton shared
 * with every other suite in this binary, and real caches register
 * themselves with it at construction.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "analysis/incremental.hpp"
#include "arch/presets.hpp"
#include "common/diag.hpp"
#include "common/membudget.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "dataflows/attention.hpp"
#include "frontend/loader.hpp"
#include "ir/shapes.hpp"
#include "mapper/guard.hpp"
#include "mapper/mapper.hpp"
#include "oracle/fuzz.hpp"

namespace tileflow {
namespace {

/** Reset the global budget on entry AND exit, so a failing assertion
 *  can never leak tiny limits into the rest of the binary. */
struct BudgetGuard
{
    BudgetGuard() { MemoryBudget::global().resetForTesting(); }
    ~BudgetGuard() { MemoryBudget::global().resetForTesting(); }
};

uint64_t
counterValue(const char* name)
{
    return MetricsRegistry::global().counter(name).value();
}

bool
bitsEq(double a, double b)
{
    uint64_t x = 0;
    uint64_t y = 0;
    std::memcpy(&x, &a, sizeof x);
    std::memcpy(&y, &b, sizeof y);
    return x == y;
}

// -------------------------------------------------------------------
// MemoryBudget: configuration and the pressure state machine
// -------------------------------------------------------------------

TEST(MemBudget, DisabledBudgetIsInert)
{
    BudgetGuard guard;
    MemoryBudget& budget = MemoryBudget::global();
    EXPECT_FALSE(budget.enabled());
    EXPECT_EQ(budget.softLimitBytes(), 0u);
    EXPECT_EQ(budget.hardLimitBytes(), 0u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(budget.poll(), MemPressure::Ok);
    EXPECT_EQ(budget.sample(), MemPressure::Ok);
    EXPECT_EQ(budget.level(), MemPressure::Ok);
}

TEST(MemBudget, ConfigureNormalizesLimits)
{
    BudgetGuard guard;
    MemoryBudget& budget = MemoryBudget::global();

    budget.configure(uint64_t(100) << 20, uint64_t(200) << 20);
    EXPECT_TRUE(budget.enabled());
    EXPECT_EQ(budget.softLimitBytes(), uint64_t(100) << 20);
    EXPECT_EQ(budget.hardLimitBytes(), uint64_t(200) << 20);

    // A nonzero hard below soft is lifted to soft, never inverted.
    budget.configure(uint64_t(100) << 20, uint64_t(50) << 20);
    EXPECT_EQ(budget.hardLimitBytes(), budget.softLimitBytes());

    budget.configure(0, 0);
    EXPECT_FALSE(budget.enabled());
}

TEST(MemBudget, RssSamplingReadsProcSelfStatm)
{
    // A running test binary holds far more than a page resident.
    EXPECT_GT(MemoryBudget::processRssBytes(), uint64_t(1) << 12);
}

TEST(MemBudget, PressureStateMachineWalksUpAndDown)
{
    BudgetGuard guard;
    MemoryBudget& budget = MemoryBudget::global();
    const uint64_t soft_before = counterValue("mem.pressure_soft_events");
    const uint64_t hard_before = counterValue("mem.pressure_hard_events");

    // A 1-byte soft limit: any live process is over it.
    budget.configure(1, 0);
    EXPECT_EQ(budget.sample(), MemPressure::Soft);
    EXPECT_EQ(budget.level(), MemPressure::Soft);
    EXPECT_EQ(counterValue("mem.pressure_soft_events"), soft_before + 1);
    EXPECT_EQ(counterValue("mem.pressure_hard_events"), hard_before);

    // Staying at soft is not a new event.
    EXPECT_EQ(budget.sample(), MemPressure::Soft);
    EXPECT_EQ(counterValue("mem.pressure_soft_events"), soft_before + 1);

    // Raising the floor clears the pressure: levels fall back as the
    // RSS/limit relation changes.
    budget.configure(uint64_t(1) << 62, 0);
    EXPECT_EQ(budget.sample(), MemPressure::Ok);
    EXPECT_EQ(budget.level(), MemPressure::Ok);

    // A direct ok→hard jump counts BOTH a soft and a hard event, so
    // hard_events ≤ soft_events is an invariant telemetry_check can
    // assert on any exported snapshot.
    budget.configure(1, 1);
    EXPECT_EQ(budget.sample(), MemPressure::Hard);
    const uint64_t soft_after = counterValue("mem.pressure_soft_events");
    const uint64_t hard_after = counterValue("mem.pressure_hard_events");
    EXPECT_EQ(soft_after, soft_before + 2);
    EXPECT_EQ(hard_after, hard_before + 1);
    EXPECT_LE(hard_after, soft_after);
}

TEST(MemBudget, PollSamplesEveryNthCall)
{
    BudgetGuard guard;
    MemoryBudget& budget = MemoryBudget::global();
    budget.configure(1, 0);
    budget.setPollInterval(1);
    EXPECT_EQ(budget.poll(), MemPressure::Soft);

    // With a long interval the cached level is served between samples
    // even after the limits move (the next scheduled sample catches
    // up) — poll() must stay cheap on the hot path.
    budget.setPollInterval(1000000);
    budget.configure(uint64_t(1) << 62, 0);
    EXPECT_EQ(budget.poll(), MemPressure::Soft); // stale cached level
    EXPECT_EQ(budget.sample(), MemPressure::Ok); // forced resample
}

// -------------------------------------------------------------------
// Component registry and reclaim
// -------------------------------------------------------------------

TEST(MemBudget, ComponentAccountingAndReclaim)
{
    BudgetGuard guard;
    MemoryBudget& budget = MemoryBudget::global();
    EXPECT_EQ(budget.componentCount(), 0u);

    uint64_t held = 1000;
    std::vector<MemPressure> shrinks;
    {
        MemReclaimRegistration reg([&held, &shrinks](MemPressure level) {
            shrinks.push_back(level);
            const uint64_t freed =
                level == MemPressure::Hard ? held : held / 2;
            held -= freed;
            return freed;
        });
        EXPECT_EQ(budget.componentCount(), 1u);

        EXPECT_EQ(budget.reclaim(MemPressure::Soft), 500u);
        ASSERT_EQ(shrinks.size(), 1u);
        EXPECT_EQ(shrinks[0], MemPressure::Soft);

        EXPECT_EQ(budget.reclaim(MemPressure::Hard), 500u);
        ASSERT_EQ(shrinks.size(), 2u);
        EXPECT_EQ(shrinks[1], MemPressure::Hard);
    }
    // RAII unregistration: no dangling callbacks, reclaim finds
    // nothing to call.
    EXPECT_EQ(budget.componentCount(), 0u);
    const size_t calls_before = shrinks.size();
    budget.reclaim(MemPressure::Hard);
    EXPECT_EQ(shrinks.size(), calls_before);
}

TEST(MemBudget, ReclaimHardFlushesRegisteredCachesKeepingCounters)
{
    BudgetGuard guard;

    // Real caches register themselves with the budget at construction.
    EvalCache cache(4);
    SubtreeCache subtrees(4);
    EXPECT_EQ(MemoryBudget::global().componentCount(), 2u);

    CachedEval v;
    v.valid = true;
    v.cycles = 7.0;
    for (int64_t i = 0; i < 32; ++i)
        cache.insert({i, i, i}, v);
    (void)cache.lookup({int64_t(0), int64_t(0), int64_t(0)});
    (void)cache.lookup({int64_t(-1), int64_t(-1), int64_t(-1)});
    SubtreePartial partial;
    for (uint64_t i = 0; i < 16; ++i)
        subtrees.insert(SubtreeKey{i, i}, partial);

    const uint64_t freed = MemoryBudget::global().reclaim(MemPressure::Hard);
    EXPECT_GT(freed, 0u);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(subtrees.size(), 0u);
    // Unlike clear(), a pressure flush preserves hit/miss counters, so
    // engines snapshotting deltas mid-run stay consistent.
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

// -------------------------------------------------------------------
// Byte-exact cache accounting: gauge == inserted − evicted
// -------------------------------------------------------------------

TEST(MemBudget, EvalCacheByteGaugeIsExact)
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

TEST(MemBudget, SubtreeCacheByteGaugeIsExact)
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

TEST(MemBudget, EvalCacheShrinkSoftHalvesThenHardFlushes)
{
    // Soft shrink is byte-driven: it halves the byte cap (with a floor
    // that protects tiny caches from thrashing) and evicts FIFO down to
    // it. Use fat keys so the shard's bytes dwarf the floor and the
    // halved cap actually binds.
    BudgetGuard guard;
    EvalCache cache(1, 1024);
    CachedEval v;
    v.valid = true;
    auto fatKey = [](int64_t i) {
        std::vector<int64_t> key(1024, i);
        key[0] = i;
        return key;
    };
    for (int64_t i = 0; i < 8; ++i)
        cache.insert(fatKey(i), v);
    ASSERT_EQ(cache.size(), 8u);
    const uint64_t bytes_before = cache.bytes();
    ASSERT_GT(bytes_before, 8u * 4096u); // comfortably above the floor

    const uint64_t freed_soft = cache.shrink(MemPressure::Soft);
    EXPECT_GT(freed_soft, 0u);
    EXPECT_LE(cache.bytes(), bytes_before / 2);
    EXPECT_GT(cache.size(), 0u);

    // The ratchet: the halved byte cap keeps binding on later inserts.
    for (int64_t i = 100; i < 108; ++i)
        cache.insert(fatKey(i), v);
    EXPECT_LE(cache.bytes(), bytes_before / 2);
    EXPECT_LT(cache.size(), 16u);

    // Hard shrink flushes everything but keeps hit/miss telemetry.
    (void)cache.lookup(fatKey(999)); // one recorded miss
    const uint64_t misses_before = cache.misses();
    const uint64_t freed_hard = cache.shrink(MemPressure::Hard);
    EXPECT_GT(freed_hard, 0u);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.bytes(), 0u);
    EXPECT_EQ(cache.misses(), misses_before);
}

TEST(MemBudget, SubtreeCacheShrinkSoftHalvesThenHardFlushes)
{
    // The SubtreeCache counterpart: fat partials (long fill vectors) so
    // the shard's bytes dwarf the floor, and a default-sized entry cap
    // that the byte cap, not the entry count, binds.
    BudgetGuard guard;
    SubtreeCache cache(1, 1024);
    SubtreePartial fat;
    fat.dm.childFill.assign(1024, 1.0);
    for (uint64_t i = 0; i < 8; ++i)
        cache.insert(SubtreeKey{i, i}, fat);
    ASSERT_EQ(cache.size(), 8u);
    const uint64_t bytes_before = cache.bytes();
    ASSERT_GT(bytes_before, 8u * 4096u); // comfortably above the floor

    const uint64_t evictions_before = cache.evictions();
    const uint64_t freed_soft = cache.shrink(MemPressure::Soft);
    EXPECT_GT(freed_soft, 0u);
    EXPECT_EQ(cache.bytes(), bytes_before - freed_soft);
    EXPECT_LE(cache.bytes(), bytes_before / 2);
    EXPECT_GT(cache.size(), 0u);
    EXPECT_EQ(cache.evictions() - evictions_before, 8u - cache.size());

    // The ratchet: the halved byte cap keeps binding on later inserts.
    for (uint64_t i = 100; i < 108; ++i)
        cache.insert(SubtreeKey{i, i}, fat);
    EXPECT_LE(cache.bytes(), bytes_before / 2);
    EXPECT_LT(cache.size(), 16u);

    // Hard shrink flushes everything but keeps hit/miss telemetry.
    (void)cache.lookup(SubtreeKey{999, 999}); // one recorded miss
    const uint64_t misses_before = cache.misses();
    const uint64_t freed_hard = cache.shrink(MemPressure::Hard);
    EXPECT_GT(freed_hard, 0u);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.bytes(), 0u);
    EXPECT_EQ(cache.misses(), misses_before);
}

// -------------------------------------------------------------------
// AllocFaultInjector
// -------------------------------------------------------------------

TEST(AllocFault, DecisionsAreDeterministicAndRateBounded)
{
    const AllocFaultInjector always(1.0, 42);
    const AllocFaultInjector never(0.0, 42);
    const AllocFaultInjector some(0.25, 42);

    int faulted = 0;
    for (uint64_t key = 0; key < 4000; ++key) {
        EXPECT_TRUE(always.decideKey(key));
        EXPECT_FALSE(never.decideKey(key));
        // Purely a function of (seed, key): repeatable per key.
        EXPECT_EQ(some.decideKey(key), some.decideKey(key));
        if (some.decideKey(key))
            ++faulted;
    }
    // Law of large numbers with a wide margin: 25% ± 5%.
    EXPECT_GT(faulted, 800);
    EXPECT_LT(faulted, 1200);

    // A different seed draws a different fault set.
    const AllocFaultInjector other(0.25, 43);
    int differs = 0;
    for (uint64_t key = 0; key < 4000; ++key)
        if (some.decideKey(key) != other.decideKey(key))
            ++differs;
    EXPECT_GT(differs, 0);
}

TEST(AllocFault, RateIsClampedToUnitInterval)
{
    EXPECT_EQ(AllocFaultInjector(7.0, 1).rate(), 1.0);
    EXPECT_EQ(AllocFaultInjector(-3.0, 1).rate(), 0.0);
}

TEST(AllocFault, TextKeyIsStableAndDiscriminates)
{
    const std::string a = "arch { level L0 }";
    const std::string b = "arch { level L1 }";
    EXPECT_EQ(AllocFaultInjector::textKey(a),
              AllocFaultInjector::textKey(a));
    EXPECT_NE(AllocFaultInjector::textKey(a),
              AllocFaultInjector::textKey(b));
    // FNV-1a offset basis for the empty string: a fixed, documented
    // anchor so the keying never drifts across refactors (faults must
    // replay identically in resumed runs).
    EXPECT_EQ(AllocFaultInjector::textKey(""), 0xcbf29ce484222325ULL);
}

TEST(AllocFault, FromEnvParsesRateAndSeed)
{
    ::setenv("TILEFLOW_ALLOC_FAULT", "rate=0.5,seed=77", 1);
    const auto injector = AllocFaultInjector::fromEnv();
    ASSERT_NE(injector, nullptr);
    EXPECT_EQ(injector->rate(), 0.5);
    EXPECT_EQ(injector->seed(), 77u);

    ::setenv("TILEFLOW_ALLOC_FAULT", "rate=0", 1);
    EXPECT_EQ(AllocFaultInjector::fromEnv(), nullptr);

    ::unsetenv("TILEFLOW_ALLOC_FAULT");
    EXPECT_EQ(AllocFaultInjector::fromEnv(), nullptr);
}

// -------------------------------------------------------------------
// OOM is a tagged-infeasible evaluation, never a crash
// -------------------------------------------------------------------

TEST(AllocFault, GuardedEvaluateTagsInjectedOomAsInfeasible)
{
    BudgetGuard guard;
    const uint64_t oom_before = counterValue("mem.oom_failed_evals");
    const uint64_t faults_before = counterValue("mem.alloc_faults");

    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    Evaluator model(w, edge);
    model.setAllocFaultInjector(
        std::make_shared<AllocFaultInjector>(1.0, 9));
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
    BudgetGuard guard;
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    Evaluator model(w, edge);
    // A 20% fault rate: plenty of candidates die, the search still
    // finds a best mapping and accounts every death in the histogram.
    model.setAllocFaultInjector(
        std::make_shared<AllocFaultInjector>(0.20, 11));
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

TEST(MemBudget, HardPressureShedsEvaluationsButSearchCompletes)
{
    BudgetGuard guard;
    const uint64_t oom_before = counterValue("mem.oom_failed_evals");

    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionSpace(w, edge);

    // A 1-byte hard limit pins the budget at hard pressure: every
    // evaluation is shed as a tagged "oom" infeasible — and the search
    // still runs to completion instead of aborting.
    MemoryBudget::global().configure(1, 1);
    MemoryBudget::global().setPollInterval(1);

    MapperConfig cfg;
    cfg.rounds = 2;
    cfg.population = 4;
    cfg.tilingSamples = 8;
    cfg.seed = 11;
    cfg.threads = 1;
    const MapperResult result = exploreSpace(model, space, cfg);
    EXPECT_FALSE(result.found);
    ASSERT_NE(result.failureHistogram.find("oom"),
              result.failureHistogram.end());
    EXPECT_GT(result.failureHistogram.at("oom"), 0u);
    EXPECT_GT(counterValue("mem.oom_failed_evals"), oom_before);
}

// -------------------------------------------------------------------
// Soft pressure never changes values — only hit rates
// -------------------------------------------------------------------

void
collectMutableNodes(Node* node, std::vector<Node*>& scopes,
                    std::vector<Node*>& tiles)
{
    if (node->isScope())
        scopes.push_back(node);
    if (node->isTile() && !node->loops().empty())
        tiles.push_back(node);
    for (const auto& child : node->children())
        collectMutableNodes(child.get(), scopes, tiles);
}

/** One single-knob move of the GA/MCTS neighborhood (the same move
 *  set test_incremental.cpp uses for its bit-identity property). */
bool
mutateOneKnobForBudgetTest(Rng& rng, AnalysisTree& tree)
{
    if (!tree.hasRoot())
        return false;
    std::vector<Node*> scopes;
    std::vector<Node*> tiles;
    collectMutableNodes(tree.root(), scopes, tiles);

    for (int attempt = 0; attempt < 16; ++attempt) {
        const int64_t pick = rng.uniformInt(0, 3);
        if (pick <= 1 && !scopes.empty()) {
            Node* scope = scopes[rng.index(scopes.size())];
            static const ScopeKind kKinds[] = {
                ScopeKind::Seq, ScopeKind::Shar, ScopeKind::Para,
                ScopeKind::Pipe};
            const ScopeKind next = kKinds[rng.index(4)];
            if (next == scope->scopeKind())
                continue;
            scope->setScopeKind(next);
            return true;
        }
        if (!tiles.empty()) {
            Node* tile = tiles[rng.index(tiles.size())];
            Loop& loop = tile->loops()[rng.index(tile->loops().size())];
            if (pick == 2) {
                loop.kind = loop.isTemporal() ? LoopKind::Spatial
                                              : LoopKind::Temporal;
                return true;
            }
            const int64_t next = rng.uniformInt(1, 4);
            if (next == loop.extent)
                continue;
            loop.extent = next;
            return true;
        }
    }
    return false;
}

TEST(MemBudget, SoftPressureKeepsEvaluationsBitIdentical)
{
    const ArchSpec spec = makeValidationArch();

    // Baseline pass with the budget disabled, across every fuzz
    // family, warm + mutation sequence (the mapper's neighborhood).
    struct Sample
    {
        bool valid;
        double cycles;
        double energyPJ;
        double utilization;
        std::vector<std::string> problems;
    };
    const auto run = [&spec](std::vector<Sample>* out) {
        Rng rng(0xC0FFEEu);
        std::set<int> families;
        for (uint64_t index = 0; index < 21; ++index) {
            FuzzCase fc = makeFuzzCase(0xB1D6E7u, index);
            families.insert(fc.kind);
            const Evaluator full(*fc.workload, spec);
            SubtreeCache cache; // registers with the budget
            const IncrementalEvaluator inc(full, cache);
            for (int m = 0; m < 4; ++m) {
                const EvalResult r = inc.evaluate(*fc.tree);
                out->push_back(Sample{r.valid, r.cycles, r.energyPJ,
                                      r.utilization, r.problems});
                if (!mutateOneKnobForBudgetTest(rng, *fc.tree))
                    break;
            }
        }
        return families.size();
    };

    std::vector<Sample> baseline;
    size_t families = 0;
    {
        BudgetGuard guard;
        families = run(&baseline);
    }
    EXPECT_EQ(families, 7u)
        << "fuzz stream did not cover every generator family";

    // Same pass under permanent soft pressure: the registered caches
    // are shrunk on the ok→soft transition and capped thereafter.
    std::vector<Sample> pressured;
    {
        BudgetGuard guard;
        MemoryBudget::global().configure(1, 0);
        MemoryBudget::global().setPollInterval(1);
        ASSERT_EQ(MemoryBudget::global().sample(), MemPressure::Soft);
        run(&pressured);
    }

    ASSERT_EQ(pressured.size(), baseline.size());
    for (size_t i = 0; i < baseline.size(); ++i) {
        EXPECT_EQ(pressured[i].valid, baseline[i].valid) << i;
        EXPECT_TRUE(bitsEq(pressured[i].cycles, baseline[i].cycles))
            << i << ": " << pressured[i].cycles << " vs "
            << baseline[i].cycles;
        EXPECT_TRUE(bitsEq(pressured[i].energyPJ, baseline[i].energyPJ))
            << i;
        EXPECT_TRUE(
            bitsEq(pressured[i].utilization, baseline[i].utilization))
            << i;
        EXPECT_EQ(pressured[i].problems, baseline[i].problems) << i;
    }
}

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

    const auto runWith = [&](bool soft_pressure) {
        BudgetGuard guard;
        if (soft_pressure) {
            MemoryBudget::global().configure(1, 0);
            MemoryBudget::global().setPollInterval(1);
        }
        return exploreSpace(model, space, cfg);
    };
    const MapperResult reference = runWith(false);
    ASSERT_TRUE(reference.found);
    const MapperResult pressured = runWith(true);

    // Shrink changes hit rates only, never values: the best mapping,
    // its cost and the whole per-round trace are bit-identical.
    // (`evaluations` may legitimately grow — evicted entries are
    // recomputed — which is exactly the allowed degradation.)
    EXPECT_TRUE(pressured.found);
    EXPECT_EQ(pressured.bestChoices, reference.bestChoices);
    EXPECT_TRUE(bitsEq(pressured.bestCycles, reference.bestCycles));
    ASSERT_EQ(pressured.trace.size(), reference.trace.size());
    for (size_t i = 0; i < reference.trace.size(); ++i) {
        const bool both_nan = std::isnan(pressured.trace[i]) &&
                              std::isnan(reference.trace[i]);
        EXPECT_TRUE(both_nan ||
                    bitsEq(pressured.trace[i], reference.trace[i]))
            << "round " << i;
    }
    EXPECT_EQ(pressured.failureHistogram, reference.failureHistogram);
    EXPECT_GE(pressured.evaluations, reference.evaluations);
}

TEST(MemBudget, KillResumeStaysBitIdenticalUnderSoftPressure)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionSpace(w, edge);

    MapperConfig cfg;
    cfg.rounds = 4;
    cfg.population = 6;
    cfg.tilingSamples = 12;
    cfg.seed = 31;
    cfg.threads = 1;

    const MapperResult reference = [&] {
        BudgetGuard guard;
        return exploreSpace(model, space, cfg);
    }();
    ASSERT_TRUE(reference.found);
    ASSERT_GT(reference.evaluations, 0);

    // Kill mid-search and resume, all under permanent soft pressure:
    // pressure-triggered cache flushes between the two runs must not
    // perturb the resumed trajectory (caps are deliberately NOT part
    // of the checkpoint config hash).
    const std::string path = testing::TempDir() + "membudget.ckpt";
    std::remove(path.c_str());
    const MapperResult resumed = [&] {
        BudgetGuard guard;
        MemoryBudget::global().configure(1, 0);
        MemoryBudget::global().setPollInterval(1);

        MapperConfig killed = cfg;
        killed.checkpointPath = path;
        killed.maxEvaluations = reference.evaluations / 2;
        const MapperResult k = exploreSpace(model, space, killed);
        EXPECT_TRUE(k.timedOut);

        MapperConfig resume = cfg;
        resume.checkpointPath = path;
        return exploreSpace(model, space, resume);
    }();
    std::remove(path.c_str());

    EXPECT_TRUE(resumed.resumed);
    EXPECT_EQ(resumed.found, reference.found);
    EXPECT_EQ(resumed.bestChoices, reference.bestChoices);
    EXPECT_TRUE(bitsEq(resumed.bestCycles, reference.bestCycles));
    ASSERT_EQ(resumed.trace.size(), reference.trace.size());
    for (size_t i = 0; i < reference.trace.size(); ++i) {
        const bool both_nan = std::isnan(resumed.trace[i]) &&
                              std::isnan(reference.trace[i]);
        EXPECT_TRUE(both_nan ||
                    bitsEq(resumed.trace[i], reference.trace[i]))
            << "round " << i;
    }
}

// -------------------------------------------------------------------
// Frontend: OOM during a load is the F604 diagnostic, not a crash
// -------------------------------------------------------------------

/**
 * Inner half of the subprocess pair below. AllocFaultInjector::env()
 * is parsed once per process, so the injected-loader path can only be
 * exercised in a process that started with TILEFLOW_ALLOC_FAULT set —
 * the outer test re-execs this binary with the variable exported and
 * this filter selected.
 */
TEST(AllocFaultChild, DISABLED_LoaderReportsF604UnderEnvInjector)
{
    ASSERT_NE(AllocFaultInjector::env(), nullptr)
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
    // Re-exec this test binary with a rate-1.0 injector in the
    // environment; the child's assertions (above) do the checking.
    char exe[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    ASSERT_GT(n, 0);
    exe[n] = '\0';

    const std::string cmd =
        std::string("TILEFLOW_ALLOC_FAULT='rate=1,seed=1' '") + exe +
        "' --gtest_also_run_disabled_tests "
        "--gtest_filter='AllocFaultChild.*' > /dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

} // namespace
} // namespace tileflow
