/**
 * @file
 * Checkpoint/resume tests: the verdict log's records, corruption and
 * torn-tail handling, and the headline contract — a search killed by a
 * budget and resumed from its log is bit-identical to an uninterrupted
 * run (fixed seed, one thread), fault injection and all, and calls the
 * evaluator for no logged verdict again.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "analysis/faultinject.hpp"
#include "arch/presets.hpp"
#include "common/telemetry.hpp"
#include "dataflows/attention.hpp"
#include "ir/shapes.hpp"
#include "mapper/mapper.hpp"
#include "mapper/verdictlog.hpp"

namespace tileflow {
namespace {

std::string
ckptPath(const char* name)
{
    const std::string path = testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
spit(const std::string& path, const std::string& data)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << data;
}

/** Verdict records (lines starting "v ") in the log at `path`. */
int
verdictRecords(const std::string& path)
{
    std::ifstream in(path);
    std::string line;
    int n = 0;
    while (std::getline(in, line))
        n += line.rfind("v ", 0) == 0 ? 1 : 0;
    return n;
}

/** Evaluator calls so far, with or without a SubtreeCache. */
uint64_t
evaluatorCalls()
{
    const MetricsRegistry& m = MetricsRegistry::global();
    return m.counterValue("analysis.evaluations") +
           m.counterValue("analysis.incremental_evals");
}

CachedEval
verdict(bool valid, double cycles, bool failed = false,
        std::string reason = "")
{
    CachedEval v;
    v.valid = valid;
    v.cycles = cycles;
    v.failed = failed;
    v.failReason = std::move(reason);
    return v;
}

uint64_t
bitsOf(double value)
{
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

/** Bitwise double comparison (EXPECT_EQ rejects NaN == NaN). */
void
expectSameBits(const std::vector<double>& a,
               const std::vector<double>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        if (std::isnan(a[i]))
            EXPECT_TRUE(std::isnan(b[i])) << "index " << i;
        else
            EXPECT_EQ(a[i], b[i]) << "index " << i;
    }
}

/** Everything that must survive a kill+resume unchanged. */
void
expectEquivalentResults(const MapperResult& resumed,
                        const MapperResult& reference)
{
    ASSERT_EQ(resumed.found, reference.found);
    EXPECT_EQ(resumed.bestCycles, reference.bestCycles);
    EXPECT_EQ(resumed.bestChoices, reference.bestChoices);
    expectSameBits(resumed.trace, reference.trace);
    EXPECT_EQ(resumed.evaluations, reference.evaluations);
    EXPECT_EQ(resumed.cacheHits, reference.cacheHits);
    EXPECT_EQ(resumed.cacheMisses, reference.cacheMisses);
    EXPECT_EQ(resumed.failureHistogram, reference.failureHistogram);
    EXPECT_EQ(resumed.failedEvaluations, reference.failedEvaluations);
    EXPECT_EQ(resumed.prescreenRejects, reference.prescreenRejects);
    EXPECT_FALSE(resumed.timedOut);
}

TEST(Ckpt, PrimitivesRoundTrip)
{
    const std::string path = ckptPath("prims.log");
    double weird_nan;
    const uint64_t nan_bits = 0x7ff8dead'beef1234ULL;
    std::memcpy(&weird_nan, &nan_bits, sizeof(weird_nan));
    const std::string reason = "injected fault (seed 7)\nsecond line ";
    {
        VerdictLog log(path, "config");
        EXPECT_EQ(log.loaded(), 0u);
        EXPECT_FALSE(log.replaying());
        log.append({1, 2, 3}, verdict(true, 0.1));
        log.append({-42, int64_t(1) << 40}, verdict(true, weird_nan));
        log.append({}, verdict(false, 0.0));
        log.append({6}, verdict(false, 0.0, true, reason));
        log.sync(1234, 4);
    }

    VerdictLog log(path, "config");
    EXPECT_EQ(log.loaded(), 4u);
    EXPECT_EQ(log.loggedElapsedMs(), 1234);
    EXPECT_TRUE(log.replaying());

    // A replay fills the verdict and leaves the bound fields alone.
    CachedEval out;
    out.boundCycles = 5.0;
    ASSERT_TRUE(log.replay({1, 2, 3}, out));
    EXPECT_TRUE(out.valid);
    EXPECT_EQ(out.cycles, 0.1);
    EXPECT_EQ(out.boundCycles, 5.0);
    ASSERT_TRUE(log.replay({-42, int64_t(1) << 40}, out));
    EXPECT_EQ(bitsOf(out.cycles), nan_bits); // NaN payload bit-exact
    ASSERT_TRUE(log.replay({}, out));
    EXPECT_FALSE(out.valid);
    EXPECT_FALSE(out.failed);
    ASSERT_TRUE(log.replay({6}, out));
    EXPECT_TRUE(out.failed);
    EXPECT_EQ(out.failReason, reason);
    EXPECT_TRUE(log.replaying());

    // The first miss ends the replay.
    EXPECT_FALSE(log.replay({7}, out));
    EXPECT_FALSE(log.replaying());
}

TEST(Ckpt, CacheAndHistogramRoundTrip)
{
    // The log stores no cache or failure histogram: a resumed search
    // rebuilds both by replay, so a kill+resume must leave the cache
    // traffic and the histogram exactly as an uninterrupted run's.
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    Evaluator model(w, edge);
    model.setFaultInjector(std::make_shared<FaultInjector>(0.10, 0.05, 5));
    const MappingSpace space = makeAttentionTilingSpace(w, edge);
    MapperConfig cfg;
    cfg.threads = 1;
    const int samples = 150;
    const MapperResult reference = exploreTiling(model, space, samples, 7u, cfg);
    ASSERT_FALSE(reference.failureHistogram.empty());
    ASSERT_GT(reference.cacheHits, 0u);

    MapperConfig killed = cfg;
    killed.checkpointPath = ckptPath("cache_hist.log");
    killed.maxEvaluations = reference.evaluations / 2;
    const MapperResult k = exploreTiling(model, space, samples, 7u, killed);
    ASSERT_TRUE(k.timedOut);
    ASSERT_LT(k.failedEvaluations, reference.failedEvaluations);

    MapperConfig resume = cfg;
    resume.checkpointPath = killed.checkpointPath;
    const MapperResult r = exploreTiling(model, space, samples, 7u, resume);
    ASSERT_TRUE(r.resumed);
    EXPECT_EQ(r.failureHistogram, reference.failureHistogram);
    EXPECT_EQ(r.failedEvaluations, reference.failedEvaluations);
    // Replayed verdicts fill the cache like fresh ones: no phantom
    // restored traffic, no lost entries.
    EXPECT_EQ(r.cacheHits, reference.cacheHits);
    EXPECT_EQ(r.cacheMisses, reference.cacheMisses);
    EXPECT_EQ(r.bestCycles, reference.bestCycles);
}

TEST(Ckpt, RejectsCorruptionAndMismatches)
{
    const std::string path = ckptPath("corrupt.log");
    {
        VerdictLog log(path, "config");
        for (int64_t i = 0; i < 3; ++i)
            log.append({i}, verdict(true, 100.0 + double(i)));
        log.flush();
    }
    ASSERT_EQ(VerdictLog(path, "config").loaded(), 3u);

    // Flip one byte of the second record: its checksum catches it, and
    // only the records before it survive.
    std::string data = slurp(path);
    const size_t second = data.find("\nv 1 1 ");
    ASSERT_NE(second, std::string::npos);
    data[second + 9] ^= 0x01;
    spit(path, data);
    EXPECT_EQ(VerdictLog(path, "config").loaded(), 1u);

    // A different config hash starts a fresh log, which replaces the
    // old one.
    {
        VerdictLog other(path, "other config");
        EXPECT_EQ(other.loaded(), 0u);
        EXPECT_FALSE(other.replaying());
    }
    EXPECT_EQ(VerdictLog(path, "config").loaded(), 0u);

    // So does a file that is not a verdict log at all.
    spit(path, "garbage\n");
    EXPECT_EQ(VerdictLog(path, "config").loaded(), 0u);
}

TEST(Ckpt, CrashMidWriteLeavesPreviousCheckpointIntact)
{
    const std::string path = ckptPath("torn.log");
    {
        VerdictLog log(path, "config");
        log.append({1}, verdict(true, 10.0));
        log.append({2}, verdict(true, 20.0));
        log.sync(7, 2);
        log.append({3}, verdict(true, 30.0));
        log.flush();
    }
    // A write torn mid-record: the third record loses its tail.
    const std::string whole = slurp(path);
    spit(path, whole.substr(0, whole.size() - 5));

    {
        VerdictLog log(path, "config");
        EXPECT_EQ(log.loaded(), 2u);
        EXPECT_EQ(log.loggedElapsedMs(), 7);
        CachedEval out;
        EXPECT_FALSE(log.replay({3}, out));
        // The torn tail is cut off, so a new record lands readably.
        log.append({4}, verdict(true, 40.0));
    }
    VerdictLog log(path, "config");
    EXPECT_EQ(log.loaded(), 3u);
    CachedEval out;
    EXPECT_TRUE(log.replay({4}, out));
    EXPECT_EQ(out.cycles, 40.0);
}

TEST(Ckpt, PrunedCandidatesAreNotLogged)
{
    // Only evaluator verdicts are logged: a pruned candidate leaves a
    // bound-only cache entry and no record.
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionTilingSpace(w, edge);
    MapperConfig cfg;
    cfg.threads = 1;
    cfg.checkpointPath = ckptPath("pruned.log");

    const uint64_t calls_before = evaluatorCalls();
    const MapperResult r = exploreTiling(model, space, 200, 42u, cfg);
    ASSERT_GT(r.boundPruned, 0u);
    EXPECT_EQ(uint64_t(verdictRecords(cfg.checkpointPath)),
              evaluatorCalls() - calls_before);
    EXPECT_EQ(verdictRecords(cfg.checkpointPath), r.evaluations);
}

/** Shared fixture state for the kill+resume end-to-end tests. */
struct KillResume : testing::Test
{
    KillResume()
        : w(buildAttention(attentionShape("Bert-S"), false)),
          edge(makeEdgeArch()),
          model(w, edge),
          space(makeAttentionSpace(w, edge))
    {
        // 10% throwing + 5% NaN faults: resume must replay fault
        // decisions identically too.
        model.setFaultInjector(
            std::make_shared<FaultInjector>(0.10, 0.05, 5));
        cfg.rounds = 6;
        cfg.population = 6;
        cfg.tilingSamples = 15;
        cfg.seed = 99;
        cfg.threads = 1; // exact budget accounting => deterministic kill
    }

    Workload w;
    ArchSpec edge;
    Evaluator model;
    MappingSpace space;
    MapperConfig cfg;
};

TEST_F(KillResume, GaResumeIsBitIdentical)
{
    const MapperResult reference = exploreSpace(model, space, cfg);
    ASSERT_TRUE(reference.found);
    ASSERT_GT(reference.evaluations, 0);

    const std::string path = ckptPath("ga.ckpt");
    MapperConfig killed = cfg;
    killed.checkpointPath = path;
    killed.maxEvaluations = reference.evaluations / 2;
    const MapperResult k = exploreSpace(model, space, killed);
    EXPECT_TRUE(k.timedOut);
    EXPECT_EQ(k.stopReason, "evaluation budget");
    EXPECT_LT(k.evaluations, reference.evaluations);

    MapperConfig resume = cfg;
    resume.checkpointPath = path;
    const MapperResult r = exploreSpace(model, space, resume);
    EXPECT_TRUE(r.resumed);
    expectEquivalentResults(r, reference);
    // Resuming after completion is a no-op returning the same result.
    const MapperResult again = exploreSpace(model, space, resume);
    EXPECT_TRUE(again.resumed);
    expectEquivalentResults(again, reference);
}

/**
 * Kill+resume with both caches capped at one entry per shard, where
 * they evict on nearly every insert (the name is from the deleted
 * memory budget, whose soft pressure shrank the caches; a one-entry
 * cap is that pressure at its limit). The caps are not part of the
 * checkpoint config hash, and eviction changes hit rates only: the
 * capped run finds the same best and trace as an uncapped one, and its
 * resume is bit-identical to the capped run that was never killed.
 */
TEST(MemBudget, KillResumeStaysBitIdenticalUnderSoftPressure)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    Evaluator model(w, edge);
    model.setFaultInjector(std::make_shared<FaultInjector>(0.10, 0.05, 5));
    const MappingSpace space = makeAttentionSpace(w, edge);

    MapperConfig cfg;
    cfg.rounds = 4;
    cfg.population = 6;
    cfg.tilingSamples = 12;
    cfg.seed = 31;
    cfg.threads = 1; // exact budget accounting => deterministic kill

    const MapperResult uncapped = exploreSpace(model, space, cfg);
    ASSERT_TRUE(uncapped.found);

    cfg.evalCacheCap = 1;
    cfg.subtreeCacheCap = 1;
    const MetricsRegistry& m = MetricsRegistry::global();
    const uint64_t eval_evictions = m.counterValue("evalcache.evictions");
    const uint64_t subtree_evictions =
        m.counterValue("analysis.subtree_evictions");
    const MapperResult reference = exploreSpace(model, space, cfg);
    ASSERT_TRUE(reference.found);
    ASSERT_GT(reference.evaluations, 0);
    EXPECT_EQ(reference.bestCycles, uncapped.bestCycles);
    EXPECT_EQ(reference.bestChoices, uncapped.bestChoices);
    expectSameBits(reference.trace, uncapped.trace);

    const std::string path = ckptPath("capped.ckpt");
    MapperConfig killed = cfg;
    killed.checkpointPath = path;
    killed.maxEvaluations = reference.evaluations / 2;
    const MapperResult k = exploreSpace(model, space, killed);
    EXPECT_TRUE(k.timedOut);
    EXPECT_LT(k.evaluations, reference.evaluations);

    MapperConfig resume = cfg;
    resume.checkpointPath = path;
    const MapperResult r = exploreSpace(model, space, resume);
    EXPECT_TRUE(r.resumed);
    expectEquivalentResults(r, reference);
    EXPECT_GT(m.counterValue("evalcache.evictions"), eval_evictions);
    EXPECT_GT(m.counterValue("analysis.subtree_evictions"),
              subtree_evictions);
}

TEST_F(KillResume, ResumeEvaluatesNoLoggedVerdictAgain)
{
    const MetricsRegistry& m = MetricsRegistry::global();
    uint64_t calls = evaluatorCalls();
    const MapperResult reference = exploreSpace(model, space, cfg);
    const uint64_t reference_calls = evaluatorCalls() - calls;

    const std::string path = ckptPath("ga_calls.ckpt");
    MapperConfig killed = cfg;
    killed.checkpointPath = path;
    killed.maxEvaluations = reference.evaluations / 2;
    calls = evaluatorCalls();
    const MapperResult k = exploreSpace(model, space, killed);
    const uint64_t killed_calls = evaluatorCalls() - calls;
    ASSERT_TRUE(k.timedOut);

    MapperConfig resume = cfg;
    resume.checkpointPath = path;
    calls = evaluatorCalls();
    const uint64_t replayed = m.counterValue("mapper.replayed");
    const MapperResult r = exploreSpace(model, space, resume);
    const uint64_t resumed_calls = evaluatorCalls() - calls;
    ASSERT_TRUE(r.resumed);

    EXPECT_EQ(killed_calls + resumed_calls, reference_calls);
    EXPECT_EQ(m.counterValue("mapper.replayed") - replayed,
              uint64_t(k.evaluations));
    EXPECT_EQ(r.evaluations, reference.evaluations);
}

TEST_F(KillResume, CrashDuringCheckpointWriteStillResumesExactly)
{
    const MapperResult reference = exploreSpace(model, space, cfg);
    ASSERT_TRUE(reference.found);

    const std::string path = ckptPath("ga_crash.ckpt");
    MapperConfig killed = cfg;
    killed.checkpointPath = path;
    killed.maxEvaluations = (2 * reference.evaluations) / 3;
    const MapperResult k = exploreSpace(model, space, killed);
    EXPECT_TRUE(k.timedOut);

    // A crash mid-write: the log ends inside its last verdict record.
    const std::string data = slurp(path);
    const size_t last = data.rfind("\nv ");
    ASSERT_NE(last, std::string::npos);
    spit(path, data.substr(0, last + 6));

    MapperConfig resume = cfg;
    resume.checkpointPath = path;
    const MapperResult r = exploreSpace(model, space, resume);
    EXPECT_TRUE(r.resumed); // the valid prefix is old but usable
    expectEquivalentResults(r, reference);
}

TEST_F(KillResume, ConfigChangeStartsFreshInsteadOfResuming)
{
    const std::string path = ckptPath("ga_cfg.ckpt");
    MapperConfig with_ckpt = cfg;
    with_ckpt.checkpointPath = path;
    with_ckpt.rounds = 3;
    const MapperResult first = exploreSpace(model, space, with_ckpt);
    ASSERT_TRUE(first.found);

    // A different population size must not resume from that file.
    MapperConfig changed = with_ckpt;
    changed.population += 1;
    const MapperResult fresh = exploreSpace(model, space, changed);
    EXPECT_FALSE(fresh.resumed);
    EXPECT_TRUE(fresh.found);
}

TEST_F(KillResume, ArchChangeStartsFreshInsteadOfResuming)
{
    // The same search on an arch that differs only in DRAM bandwidth
    // must not replay the Edge verdicts.
    const std::string path = ckptPath("ga_arch.ckpt");
    MapperConfig with_ckpt = cfg;
    with_ckpt.checkpointPath = path;
    ASSERT_TRUE(exploreSpace(model, space, with_ckpt).found);

    ArchSpec slow = edge;
    slow.levels()[size_t(slow.dramLevel())].bandwidthGBps /= 10.0;
    Evaluator slow_model(w, slow);
    slow_model.setFaultInjector(
        std::make_shared<FaultInjector>(0.10, 0.05, 5));
    const MappingSpace slow_space = makeAttentionSpace(w, slow);
    const MapperResult reference = exploreSpace(slow_model, slow_space, cfg);

    const MapperResult r = exploreSpace(slow_model, slow_space, with_ckpt);
    EXPECT_FALSE(r.resumed);
    expectEquivalentResults(r, reference);
}

TEST_F(KillResume, MctsResumeIsBitIdentical)
{
    const MappingSpace tiling = makeAttentionTilingSpace(w, edge);
    const int samples = 150;
    const MapperResult reference =
        exploreTiling(model, tiling, samples, cfg.seed, cfg);
    ASSERT_TRUE(reference.found);

    const std::string path = ckptPath("mcts.ckpt");
    MapperConfig killed = cfg;
    killed.checkpointPath = path;
    killed.maxEvaluations = reference.evaluations / 2;
    const MapperResult k =
        exploreTiling(model, tiling, samples, cfg.seed, killed);
    EXPECT_TRUE(k.timedOut);
    EXPECT_EQ(k.stopReason, "evaluation budget");

    MapperConfig resume = cfg;
    resume.checkpointPath = path;
    const MapperResult r =
        exploreTiling(model, tiling, samples, cfg.seed, resume);
    EXPECT_TRUE(r.resumed);
    expectEquivalentResults(r, reference);
}

} // namespace
} // namespace tileflow
