/**
 * @file
 * Observability-layer tests (DESIGN.md §10): metrics instruments and
 * registry semantics, trace buffering and Chrome export, the counter
 * accounting fixes (EvalCache::clear, the checkpoint time budget),
 * ThreadPool failure propagation, and the headline contract — the
 * registry's process-cumulative counters match MapperResult exactly,
 * including across kill-and-resume.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "analysis/subtreecache.hpp"
#include "arch/presets.hpp"
#include "common/stop.hpp"
#include "common/telemetry.hpp"
#include "common/threadpool.hpp"
#include "dataflows/attention.hpp"
#include "ir/builders.hpp"
#include "ir/shapes.hpp"
#include "mapper/evalcache.hpp"
#include "mapper/mapper.hpp"

namespace tileflow {
namespace {

/** Enable tracing for one test; always restores the previous state. */
struct ScopedTracing
{
    explicit ScopedTracing(bool on) : before_(tracingEnabled())
    {
        setTracingEnabled(on);
        clearTrace();
    }

    ~ScopedTracing()
    {
        clearTrace();
        setTracingEnabled(before_);
    }

    bool before_;
};

std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

// -------------------------------------------------------------------
// Instruments
// -------------------------------------------------------------------

TEST(Telemetry, CounterAddReturnsPreviousValue)
{
    Counter c;
    EXPECT_EQ(c.add(), 0u); // the once-per-run-warning idiom
    EXPECT_EQ(c.add(), 1u);
    EXPECT_EQ(c.add(5), 2u);
    EXPECT_EQ(c.value(), 7u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(c.add(), 0u); // reset restores the first-occurrence edge
}

TEST(Telemetry, CounterIsThreadSafe)
{
    Counter c;
    constexpr int kThreads = 4;
    constexpr int kPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c]() {
            for (int i = 0; i < kPerThread; ++i)
                c.add();
        });
    }
    for (std::thread& t : threads)
        t.join();
    EXPECT_EQ(c.value(), uint64_t(kThreads) * kPerThread);
}

TEST(Telemetry, GaugeSetAddReset)
{
    Gauge g;
    EXPECT_EQ(g.value(), 0.0);
    g.set(4.5);
    EXPECT_EQ(g.value(), 4.5);
    g.add(-1.5);
    EXPECT_EQ(g.value(), 3.0);
    g.reset();
    EXPECT_EQ(g.value(), 0.0);
}

TEST(Telemetry, HistogramStatsAndQuantiles)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.minNs(), 0u); // empty: min reported as 0, not UINT64_MAX
    EXPECT_EQ(h.meanNs(), 0.0);

    h.observe(100);
    h.observe(200);
    h.observe(300);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sumNs(), 600u);
    EXPECT_EQ(h.minNs(), 100u);
    EXPECT_EQ(h.maxNs(), 300u);
    EXPECT_DOUBLE_EQ(h.meanNs(), 200.0);

    // Quantiles are bucket-upper-bound estimates: never below the
    // true value, within 2x of it (power-of-two buckets), and capped
    // at the observed max.
    const uint64_t p50 = h.quantileNs(0.50);
    EXPECT_GE(p50, 200u);
    EXPECT_LE(p50, 300u);
    EXPECT_EQ(h.quantileNs(1.0), 300u);

    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sumNs(), 0u);
    EXPECT_EQ(h.maxNs(), 0u);
}

TEST(Telemetry, ScopedLatencyObservesElapsedTime)
{
    Histogram h;
    {
        ScopedLatency timer(h);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_EQ(h.count(), 1u);
    EXPECT_GE(h.minNs(), 1'000'000u); // at least 1ms measured
}

// -------------------------------------------------------------------
// Registry
// -------------------------------------------------------------------

TEST(Telemetry, RegistryFindOrCreateReturnsStableHandles)
{
    MetricsRegistry reg;
    Counter& a = reg.counter("test.counter");
    Counter& b = reg.counter("test.counter");
    EXPECT_EQ(&a, &b);
    a.add(3);
    EXPECT_EQ(reg.counterValue("test.counter"), 3u);
    EXPECT_EQ(reg.counterValue("test.absent"), 0u);

    reg.gauge("test.gauge").set(2.5);
    EXPECT_EQ(reg.gaugeValue("test.gauge"), 2.5);

    // reset() zeroes values but keeps every handle valid.
    reg.reset();
    EXPECT_EQ(a.value(), 0u);
    EXPECT_EQ(reg.gaugeValue("test.gauge"), 0.0);
    a.add();
    EXPECT_EQ(reg.counterValue("test.counter"), 1u);
}

TEST(Telemetry, RegistryJsonAndTableContainInstruments)
{
    MetricsRegistry reg;
    reg.counter("unit.count").add(7);
    reg.gauge("unit.depth").set(1.0);
    reg.histogram("unit.latency_ns").observe(1500);

    const std::string json = reg.toJson();
    EXPECT_NE(json.find("\"unit.count\":7"), std::string::npos) << json;
    EXPECT_NE(json.find("\"unit.depth\""), std::string::npos);
    EXPECT_NE(json.find("\"unit.latency_ns\""), std::string::npos);
    EXPECT_NE(json.find("\"p99_ns\""), std::string::npos);

    const std::string table = reg.table();
    EXPECT_NE(table.find("unit.count"), std::string::npos) << table;
    EXPECT_NE(table.find("unit.latency_ns"), std::string::npos);
}

TEST(Telemetry, HumanNsPicksSensibleUnits)
{
    EXPECT_EQ(humanNs(17.0), "17ns");
    EXPECT_EQ(humanNs(4200.0), "4.2us");
    EXPECT_EQ(humanNs(1.3e6), "1.3ms");
    EXPECT_EQ(humanNs(2.5e9), "2.50s");
}

// -------------------------------------------------------------------
// Tracing
// -------------------------------------------------------------------

TEST(Telemetry, TraceSpansRecordOnlyWhenEnabled)
{
    ScopedTracing tracing(false);
    const size_t before = traceEventCount();
    {
        TraceSpan span("test.disabled", "test");
    }
    EXPECT_EQ(traceEventCount(), before); // disabled: nothing stored

    setTracingEnabled(true);
    {
        TraceSpan span("test.enabled", "test");
    }
    traceCounter("test.metric", 42.0);
    EXPECT_EQ(traceEventCount(), before + 2);

    clearTrace();
    EXPECT_EQ(traceEventCount(), 0u);
}

TEST(Telemetry, ChromeTraceExportIsWellFormed)
{
    ScopedTracing tracing(true);
    {
        TraceSpan span("test.export_span", "test");
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    traceCounter("test.export_counter", 3.0);

    const std::string path = testing::TempDir() + "trace_export.json";
    ASSERT_TRUE(writeChromeTrace(path));
    const std::string json = slurp(path);
    std::remove(path.c_str());

    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"test.export_span\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"test.export_counter\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
}

TEST(Telemetry, TracingFromManyThreadsLosesNothing)
{
    ScopedTracing tracing(true);
    constexpr int kThreads = 4;
    constexpr int kSpans = 500;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([]() {
            for (int i = 0; i < kSpans; ++i)
                TraceSpan span("test.mt_span", "test");
        });
    }
    for (std::thread& t : threads)
        t.join();
    EXPECT_EQ(traceEventCount(), size_t(kThreads) * kSpans);
    EXPECT_EQ(traceDroppedCount(), 0u);
}

TEST(Telemetry, ProgressMeterRateLimits)
{
    ProgressMeter off(0);
    EXPECT_FALSE(off.due()); // disabled, never due

    ProgressMeter meter(1);
    EXPECT_FALSE(meter.due()); // first interval not yet elapsed
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    EXPECT_TRUE(meter.due());
    EXPECT_FALSE(meter.due()); // immediately after firing: not due
}

// -------------------------------------------------------------------
// EvalCache counter lifetime (the clear() staleness fix)
// -------------------------------------------------------------------

TEST(Telemetry, EvalCacheClearResetsCountersAndCountsEvictions)
{
    const uint64_t evictions_before =
        MetricsRegistry::global().counterValue("evalcache.evictions");

    EvalCache cache;
    cache.insert({1}, {true, 10.0, false, ""});
    cache.insert({2}, {true, 20.0, false, ""});
    EXPECT_TRUE(cache.lookup({1}).has_value());
    EXPECT_FALSE(cache.lookup({3}).has_value());
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    ASSERT_EQ(cache.size(), 2u);

    // The fixed contract: clear() drops the entries AND zeroes the
    // instance counters, so per-run deltas snapshotted after a clear
    // never mix in pre-clear traffic (the old behaviour reported
    // phantom hits after a rejected checkpoint).
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);

    // The dropped entries are accounted as evictions in the
    // process-cumulative registry, not silently forgotten.
    EXPECT_EQ(
        MetricsRegistry::global().counterValue("evalcache.evictions"),
        evictions_before + 2);

    // Post-clear traffic counts from zero.
    EXPECT_FALSE(cache.lookup({1}).has_value());
    EXPECT_EQ(cache.misses(), 1u);
}

// -------------------------------------------------------------------
// Deadline re-arming (the resumed-budget fix)
// -------------------------------------------------------------------

TEST(Telemetry, DeadlineAfterRemainingMsArmsOnlyTheRemainder)
{
    // Unlimited budget stays unlimited regardless of elapsed time.
    EXPECT_TRUE(Deadline::afterRemainingMs(0, 123456).unlimited());
    EXPECT_TRUE(Deadline::afterRemainingMs(-5, 0).unlimited());

    // A partially consumed budget arms for the remainder.
    const Deadline partial = Deadline::afterRemainingMs(60000, 100);
    EXPECT_FALSE(partial.unlimited());
    EXPECT_FALSE(partial.expired());
    EXPECT_GT(partial.remainingMs(), 55000);
    EXPECT_LE(partial.remainingMs(), 60000 - 100);

    // The bug this replaces: budget fully consumed before the resume
    // must be *already expired*, not unlimited (afterMs(<=0) means
    // unlimited, so the naive subtraction granted a dead run forever).
    const Deadline spent = Deadline::afterRemainingMs(1000, 1000);
    EXPECT_FALSE(spent.unlimited());
    EXPECT_TRUE(spent.expired());
    EXPECT_EQ(spent.remainingMs(), 0);
    EXPECT_TRUE(Deadline::afterRemainingMs(1000, 5000).expired());
}

TEST(Telemetry, StopControlHoldsOnlyTheDeadline)
{
    // A resumed search replaying its verdict log holds the deadline,
    // and nothing else: the evaluation budget and a cancel still stop.
    const StopControl spent(Deadline::afterRemainingMs(1000, 5000),
                            nullptr, 10);
    EXPECT_STREQ(spent.stopReason(0), "deadline");
    EXPECT_EQ(spent.stopReason(0, true), nullptr);
    EXPECT_STREQ(spent.stopReason(10, true), "evaluation budget");

    CancellationToken cancel;
    cancel.cancel();
    const StopControl cancelled(Deadline::alreadyExpired(), &cancel, 0);
    EXPECT_STREQ(cancelled.stopReason(0, true), "cancelled");
}

// -------------------------------------------------------------------
// ThreadPool failure propagation + telemetry consistency
// -------------------------------------------------------------------

TEST(Telemetry, ParallelForPropagatesExactlyOneException)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    try {
        pool.parallelFor(8, [&ran](size_t i) {
            ran.fetch_add(1);
            if (i == 3)
                throw std::runtime_error("boom-3");
            if (i == 5)
                throw std::runtime_error("boom-5");
        });
        FAIL() << "parallelFor swallowed the exception";
    } catch (const std::runtime_error& e) {
        // Futures are joined in iteration order, so the first
        // throwing index wins deterministically.
        EXPECT_STREQ(e.what(), "boom-3");
    }
    // Every task still ran to completion (join-before-rethrow: no
    // task outlives the call, no deadlock, no detached work).
    EXPECT_EQ(ran.load(), 8);

    // The pool stays usable after a failure...
    std::atomic<int> again{0};
    pool.parallelFor(4, [&again](size_t) { again.fetch_add(1); });
    EXPECT_EQ(again.load(), 4);

    // ...and the queue-depth gauge drained back to zero.
    EXPECT_EQ(
        MetricsRegistry::global().gaugeValue("threadpool.queue_depth"),
        0.0);
}

TEST(Telemetry, NestedSubmitPropagatesExceptionThroughFuture)
{
    ThreadPool pool(2);
    // A worker-thread task submits nested work; the nested task runs
    // inline (deadlock avoidance) but its exception still arrives
    // through the future, exactly once.
    auto outer = pool.submit([&pool]() -> std::string {
        auto inner = pool.submit(
            []() -> int { throw std::runtime_error("inner boom"); });
        try {
            inner.get();
            return "no exception";
        } catch (const std::runtime_error& e) {
            return e.what();
        }
    });
    EXPECT_EQ(outer.get(), "inner boom");
}

TEST(Telemetry, ThreadPoolCountsTasksConsistently)
{
    const uint64_t tasks_before =
        MetricsRegistry::global().counterValue("threadpool.tasks");
    const uint64_t inline_before =
        MetricsRegistry::global().counterValue(
            "threadpool.inline_tasks");

    ThreadPool pool(2);
    for (int i = 0; i < 10; ++i)
        pool.submit([]() {}).get();
    // One nested submit from a worker runs inline.
    pool.submit([&pool]() { pool.submit([]() {}).get(); }).get();

    const uint64_t tasks =
        MetricsRegistry::global().counterValue("threadpool.tasks") -
        tasks_before;
    const uint64_t inlined =
        MetricsRegistry::global().counterValue(
            "threadpool.inline_tasks") -
        inline_before;
    EXPECT_EQ(tasks, 11u);  // 10 direct + the nesting outer task
    EXPECT_EQ(inlined, 1u); // the nested one
    EXPECT_EQ(
        MetricsRegistry::global().gaugeValue("threadpool.queue_depth"),
        0.0);
}

// -------------------------------------------------------------------
// Evaluator: each call counts on exactly one path
// -------------------------------------------------------------------

TEST(Telemetry, EvaluateCountsOnlyOnItsOwnPathAtEveryExit)
{
    MetricsRegistry& reg = MetricsRegistry::global();
    Counter& full_calls = reg.counter("analysis.evaluations");
    Counter& memo_calls = reg.counter("analysis.incremental_evals");
    Histogram& full_ns = reg.histogram("analysis.evaluate_ns");
    Histogram& memo_ns = reg.histogram("analysis.incremental_evaluate_ns");

    // One tree per exit of Evaluator::evaluate: accepted, rejected by
    // enforcement (every on-chip buffer starved to one byte), and
    // rejected by validation (an op above level 0).
    const Workload attn = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    ArchSpec starved = edge;
    for (size_t i = 0; i + 1 < starved.levels().size(); ++i)
        starved.levels()[i].capacityBytes = 1;
    const MappingSpace space = makeAttentionSpace(attn, edge);
    const AnalysisTree fits = space.build(space.defaultChoices());

    const Workload mm = buildMatmul("mm", 16, 16, 16);
    AnalysisTree malformed(mm);
    auto root = Node::makeTile(
        2, {Loop{mm.dimId("i"), 16, LoopKind::Temporal},
            Loop{mm.dimId("j"), 16, LoopKind::Temporal},
            Loop{mm.dimId("k"), 16, LoopKind::Temporal}});
    root->addChild(Node::makeOp(0));
    malformed.setRoot(std::move(root));

    enum class Exit { Accepted, Enforcement, Validation };
    const Evaluator accepts(attn, edge);
    const Evaluator starves(attn, starved);
    const Evaluator rejects(mm, edge);
    const struct
    {
        const Evaluator* model;
        const AnalysisTree* tree;
        Exit exit;
    } cases[] = {{&accepts, &fits, Exit::Accepted},
                 {&starves, &fits, Exit::Enforcement},
                 {&rejects, &malformed, Exit::Validation}};

    for (const auto& c : cases) {
        SubtreeCache cache; // keys carry no arch: one cache per model
        for (const bool memoized : {false, true}) {
            const std::string where =
                "exit " + std::to_string(int(c.exit)) +
                (memoized ? " with cache" : " without cache");
            const uint64_t full_before = full_calls.value();
            const uint64_t memo_before = memo_calls.value();
            const uint64_t full_ns_before = full_ns.count();
            const uint64_t memo_ns_before = memo_ns.count();

            const EvalResult r =
                c.model->evaluate(*c.tree, memoized ? &cache : nullptr);
            switch (c.exit) {
            case Exit::Accepted:
                EXPECT_TRUE(r.valid) << where;
                break;
            case Exit::Enforcement:
                EXPECT_FALSE(r.valid) << where;
                EXPECT_FALSE(r.resources.fitsMemory) << where;
                break;
            case Exit::Validation:
                EXPECT_FALSE(r.valid) << where;
                EXPECT_FALSE(r.problems.empty()) << where;
                EXPECT_TRUE(r.resources.violations.empty()) << where;
                break;
            }

            const uint64_t want_full = memoized ? 0 : 1;
            const uint64_t want_memo = memoized ? 1 : 0;
            EXPECT_EQ(full_calls.value() - full_before, want_full) << where;
            EXPECT_EQ(full_ns.count() - full_ns_before, want_full) << where;
            EXPECT_EQ(memo_calls.value() - memo_before, want_memo) << where;
            EXPECT_EQ(memo_ns.count() - memo_ns_before, want_memo) << where;
        }
    }
}

TEST(Telemetry, EnforcementFailureFlushesItsPartials)
{
    // A mapping rejected for capacity still leaves its data-movement
    // and footprint partials in the cache, so evaluating it again
    // misses nowhere.
    const Workload attn = buildAttention(attentionShape("Bert-S"), false);
    ArchSpec starved = makeEdgeArch();
    for (size_t i = 0; i + 1 < starved.levels().size(); ++i)
        starved.levels()[i].capacityBytes = 1;
    const MappingSpace space = makeAttentionSpace(attn, starved);
    const AnalysisTree tree = space.build(space.defaultChoices());
    const Evaluator model(attn, starved);

    SubtreeCache cache;
    const EvalResult first = model.evaluate(tree, &cache);
    ASSERT_FALSE(first.valid);
    ASSERT_FALSE(first.resources.fitsMemory);
    const uint64_t misses = cache.misses();
    EXPECT_GT(misses, 0u);
    const EvalResult again = model.evaluate(tree, &cache);
    EXPECT_EQ(cache.misses(), misses);
    EXPECT_EQ(again.problems, first.problems);
}

// -------------------------------------------------------------------
// End-to-end: registry totals match MapperResult
// -------------------------------------------------------------------

struct MapperTelemetry : testing::Test
{
    MapperTelemetry()
        : w(buildAttention(attentionShape("Bert-S"), false)),
          edge(makeEdgeArch()),
          model(w, edge),
          space(makeAttentionSpace(w, edge))
    {
        cfg.rounds = 3;
        cfg.population = 4;
        cfg.tilingSamples = 10;
        cfg.seed = 42;
        cfg.threads = 1;
    }

    std::string
    ckptPath(const char* name)
    {
        const std::string path = testing::TempDir() + name;
        std::remove(path.c_str());
        std::remove((path + ".tmp").c_str());
        return path;
    }

    /** The search time (ms) of the last `s` record in the verdict log
     *  at `path`: the pre-kill time a resume from it starts from. -1
     *  if the file holds no such record. */
    static int64_t
    checkpointElapsedMs(const std::string& path)
    {
        std::ifstream in(path);
        std::string line;
        int64_t elapsed = -1;
        while (std::getline(in, line)) {
            if (line.rfind("s ", 0) == 0)
                elapsed = std::stoll(line.substr(2));
        }
        return elapsed;
    }

    Workload w;
    ArchSpec edge;
    Evaluator model;
    MappingSpace space;
    MapperConfig cfg;
};

TEST_F(MapperTelemetry, RegistryDeltasMatchMapperResult)
{
    MetricsRegistry& reg = MetricsRegistry::global();
    const uint64_t evals_before = reg.counterValue("mapper.evaluations");
    const uint64_t hits_before = reg.counterValue("evalcache.hits");
    const uint64_t misses_before = reg.counterValue("evalcache.misses");
    const uint64_t failed_before =
        reg.counterValue("mapper.failed_evaluations");

    const MapperResult result = exploreSpace(model, space, cfg);
    ASSERT_TRUE(result.found);

    EXPECT_EQ(reg.counterValue("mapper.evaluations") - evals_before,
              uint64_t(result.evaluations));
    EXPECT_EQ(reg.counterValue("evalcache.hits") - hits_before,
              result.cacheHits);
    EXPECT_EQ(reg.counterValue("evalcache.misses") - misses_before,
              result.cacheMisses);
    EXPECT_EQ(reg.counterValue("mapper.failed_evaluations") -
                  failed_before,
              result.failedEvaluations);
    EXPECT_GE(result.elapsedMs, 0);
}

TEST_F(MapperTelemetry, RegistryDeltasMatchAcrossKillAndResume)
{
    MetricsRegistry& reg = MetricsRegistry::global();
    const MapperResult reference = exploreSpace(model, space, cfg);
    ASSERT_TRUE(reference.found);
    ASSERT_GT(reference.evaluations, 0);

    const std::string path = ckptPath("telemetry_resume.ckpt");
    MapperConfig killed = cfg;
    killed.checkpointPath = path;
    killed.maxEvaluations = reference.evaluations / 2;
    const MapperResult k = exploreSpace(model, space, killed);
    ASSERT_TRUE(k.timedOut);
    // The time the resume starts from: the last one the killed run
    // logged.
    const int64_t charged = checkpointElapsedMs(path);
    ASSERT_GE(charged, 0);

    // The resumed run re-runs the search from its seed, replaying the
    // logged verdicts, so the *resume's own delta* equals its totals —
    // the same invariant the schema checker enforces on
    // mapper_search's --metrics-out.
    const uint64_t evals_before = reg.counterValue("mapper.evaluations");
    const uint64_t hits_before = reg.counterValue("evalcache.hits");
    const uint64_t misses_before = reg.counterValue("evalcache.misses");

    MapperConfig resume = cfg;
    resume.checkpointPath = path;
    const MapperResult r = exploreSpace(model, space, resume);
    ASSERT_TRUE(r.resumed);
    EXPECT_EQ(r.evaluations, reference.evaluations);

    EXPECT_EQ(reg.counterValue("mapper.evaluations") - evals_before,
              uint64_t(r.evaluations));
    EXPECT_EQ(reg.counterValue("evalcache.hits") - hits_before,
              r.cacheHits);
    EXPECT_EQ(reg.counterValue("evalcache.misses") - misses_before,
              r.cacheMisses);

    // The resume's wall clock includes the elapsed time its log
    // recorded, so it never reports less.
    EXPECT_GE(r.elapsedMs, charged);
    std::remove(path.c_str());
}

TEST_F(MapperTelemetry, ResumedRunReArmsOnlyTheRemainingTimeBudget)
{
    const std::string path = ckptPath("telemetry_budget.ckpt");

    // Kill a run via its evaluation budget so some wall clock is
    // recorded in the checkpoint. The cap lets generation 0 finish — a
    // one-round run of the same search makes exactly its evaluations —
    // and trips one evaluation into generation 1. The search is sized
    // so that generation 0 takes milliseconds, not microseconds, and
    // seeded so that generation 1 evaluates at all (with the fixture's
    // seed every evaluation lands in generation 0).
    MapperConfig search = cfg;
    search.tilingSamples = 80;
    search.seed = 7;
    MapperConfig one_round = search;
    one_round.rounds = 1;
    const MapperResult gen0 = exploreSpace(model, space, one_round);
    const MapperResult reference = exploreSpace(model, space, search);
    ASSERT_GT(reference.evaluations, gen0.evaluations + 1);
    MapperConfig killed = search;
    killed.checkpointPath = path;
    killed.maxEvaluations = gen0.evaluations + 1;
    const MapperResult k = exploreSpace(model, space, killed);
    ASSERT_TRUE(k.timedOut);
    const int64_t charged = checkpointElapsedMs(path);
    ASSERT_GE(charged, 0);
    if (charged < 1) {
        GTEST_SKIP() << "generation 0 finished in under a millisecond; "
                        "no elapsed time to charge";
    }

    // Resume with a time budget the killed run already exceeded: the
    // re-arm must stop on the deadline instead of granting a fresh
    // full budget (the old bug — worse, the naive remainder
    // computation made it *unlimited*). The deadline is held while the
    // log replays, so it stops at the first poll after the replay.
    MapperConfig resume = killed;
    resume.maxEvaluations = 0;
    resume.timeBudgetMs = 1;
    const MapperResult r = exploreSpace(model, space, resume);
    ASSERT_TRUE(r.resumed);
    EXPECT_TRUE(r.timedOut);
    EXPECT_EQ(r.stopReason, "deadline");
    // The replay reaches the kill point, then at most one rollout
    // batch of new work runs before the stop.
    EXPECT_GT(r.evaluations, 0);
    EXPECT_LE(k.evaluations, r.evaluations);
    EXPECT_LE(r.evaluations, k.evaluations + search.mctsBatch);
    std::remove(path.c_str());
}

} // namespace
} // namespace tileflow
