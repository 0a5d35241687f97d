/**
 * @file
 * Checkpoint/resume tests: serialization primitives, corruption and
 * crash handling, and the headline contract — a search killed by a
 * budget and resumed from its checkpoint is bit-identical to an
 * uninterrupted run (fixed seed, one thread), fault injection and all.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "analysis/faultinject.hpp"
#include "arch/presets.hpp"
#include "dataflows/attention.hpp"
#include "ir/shapes.hpp"
#include "mapper/checkpoint.hpp"
#include "mapper/mapper.hpp"

namespace tileflow {
namespace {

std::string
ckptPath(const char* name)
{
    const std::string path = testing::TempDir() + name;
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
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
    std::ofstream out(path, std::ios::binary);
    out << data;
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
    const std::string path = ckptPath("prims.ckpt");
    uint64_t nan_bits = 0x7ff8dead'beef1234ULL;
    double weird_nan;
    std::memcpy(&weird_nan, &nan_bits, sizeof(weird_nan));

    CkptWriter w("test", 0xabcULL);
    w.u64(0);
    w.u64(~0ULL);
    w.i64(-42);
    w.d(weird_nan);
    w.d(0.1);
    w.tag("strings");
    w.str("");
    w.str("spaces and\nnewlines survive");
    ASSERT_TRUE(w.writeTo(path));

    auto r = CkptReader::open(path, "test", 0xabcULL);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->u64(), 0u);
    EXPECT_EQ(r->u64(), ~0ULL);
    EXPECT_EQ(r->i64(), -42);
    const double back = r->d();
    uint64_t back_bits;
    std::memcpy(&back_bits, &back, sizeof(back_bits));
    EXPECT_EQ(back_bits, nan_bits); // NaN payload preserved bit-exactly
    EXPECT_EQ(r->d(), 0.1);
    r->tag("strings");
    EXPECT_EQ(r->str(), "");
    EXPECT_EQ(r->str(), "spaces and\nnewlines survive");
    EXPECT_TRUE(r->ok());

    // Reading past the end / a wrong tag poisons instead of throwing.
    r->tag("missing");
    EXPECT_FALSE(r->ok());
    EXPECT_EQ(r->u64(), 0u);
}

TEST(Ckpt, RejectsCorruptionAndMismatches)
{
    const std::string path = ckptPath("corrupt.ckpt");
    CkptWriter w("test", 7);
    w.u64(123);
    w.str("payload payload payload");
    ASSERT_TRUE(w.writeTo(path));

    ASSERT_TRUE(CkptReader::open(path, "test", 7).has_value());
    // Wrong kind / wrong config hash: refuse to resume.
    EXPECT_FALSE(CkptReader::open(path, "other", 7).has_value());
    EXPECT_FALSE(CkptReader::open(path, "test", 8).has_value());
    EXPECT_FALSE(
        CkptReader::open(path + ".gone", "test", 7).has_value());

    // Flip one payload byte: the checksum catches it.
    std::string data = slurp(path);
    data[data.size() / 2] ^= 0x20;
    spit(path, data);
    EXPECT_FALSE(CkptReader::open(path, "test", 7).has_value());

    // Truncation (a torn write that somehow hit the final path).
    spit(path, slurp(path).substr(0, 10));
    EXPECT_FALSE(CkptReader::open(path, "test", 7).has_value());
}

TEST(Ckpt, CrashMidWriteLeavesPreviousCheckpointIntact)
{
    const std::string path = ckptPath("crash.ckpt");
    CkptWriter v1("test", 7);
    v1.u64(1);
    ASSERT_TRUE(v1.writeTo(path));

    armCheckpointCrashForTesting(0);
    CkptWriter v2("test", 7);
    v2.u64(2);
    EXPECT_FALSE(v2.writeTo(path)); // dies mid-payload, before rename
    armCheckpointCrashForTesting(-1);

    auto r = CkptReader::open(path, "test", 7);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->u64(), 1u); // previous checkpoint untouched
}

TEST(Ckpt, CacheAndHistogramRoundTrip)
{
    EvalCache cache;
    cache.insert({1, 2, 3}, {true, 1234.5, false, ""});
    cache.insert({4, 5}, {false, 0.0, false, ""});
    cache.insert({6}, {false, 0.0, true, "injected fault (seed 7)"});

    FailureHistogram hist;
    hist["injected fault (seed 7)"] = 3;
    hist["non-finite or non-positive cycles"] = 1;

    const std::string path = ckptPath("cache.ckpt");
    CkptWriter w("test", 1);
    ckptWriteCache(w, cache);
    ckptWriteHistogram(w, hist);
    ASSERT_TRUE(w.writeTo(path));

    auto r = CkptReader::open(path, "test", 1);
    ASSERT_TRUE(r.has_value());
    EvalCache back;
    FailureHistogram hist_back;
    ASSERT_TRUE(ckptReadCache(*r, back));
    ASSERT_TRUE(ckptReadHistogram(*r, hist_back));

    EXPECT_EQ(back.size(), cache.size());
    EXPECT_EQ(hist_back, hist);
    const auto failed = back.lookup({6});
    ASSERT_TRUE(failed.has_value());
    EXPECT_TRUE(failed->failed);
    EXPECT_EQ(failed->failReason, "injected fault (seed 7)");
    const auto valid = back.lookup({1, 2, 3});
    ASSERT_TRUE(valid.has_value());
    EXPECT_TRUE(valid->valid);
    EXPECT_EQ(valid->cycles, 1234.5);
    // insert() on restore leaves the hit/miss counters at the lookups
    // we just did, not at phantom restored traffic.
    EXPECT_EQ(back.hits(), 2u);
}

TEST(Ckpt, CacheWriteSkipsBoundOnlyEntries)
{
    // Bound-only entries are not persisted: the payload, and so the
    // checkpoint format, is what a cache of the full verdicts writes.
    EvalCache full_only;
    full_only.insert({1, 2, 3}, {true, 1234.5, false, ""});
    EvalCache mixed;
    mixed.insert({1, 2, 3}, {true, 1234.5, false, ""});
    CachedEval bound;
    bound.boundOnly = true;
    bound.boundCycles = 99.0;
    mixed.insert({7, 8}, bound);
    bound.capacityReject = true;
    mixed.insert({9}, bound);
    ASSERT_EQ(mixed.size(), 3u);

    const std::string a = ckptPath("full_only.ckpt");
    const std::string b = ckptPath("mixed.ckpt");
    CkptWriter wa("test", 1);
    ckptWriteCache(wa, full_only);
    ASSERT_TRUE(wa.writeTo(a));
    CkptWriter wb("test", 1);
    ckptWriteCache(wb, mixed);
    ASSERT_TRUE(wb.writeTo(b));
    EXPECT_EQ(slurp(a), slurp(b));

    auto r = CkptReader::open(b, "test", 1);
    ASSERT_TRUE(r.has_value());
    EvalCache back;
    ASSERT_TRUE(ckptReadCache(*r, back));
    EXPECT_EQ(back.size(), 1u);
    EXPECT_FALSE(back.lookup({7, 8}).has_value());
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

TEST_F(KillResume, CrashDuringCheckpointWriteStillResumesExactly)
{
    const MapperResult reference = exploreSpace(model, space, cfg);
    ASSERT_TRUE(reference.found);

    const std::string path = ckptPath("ga_crash.ckpt");
    MapperConfig killed = cfg;
    killed.checkpointPath = path;
    killed.maxEvaluations = (2 * reference.evaluations) / 3;
    // First checkpoint write lands; every later one crashes
    // mid-payload. The engine must shrug the failed writes off and the
    // on-disk file must stay the complete generation-1 checkpoint.
    armCheckpointCrashForTesting(1);
    const MapperResult k = exploreSpace(model, space, killed);
    armCheckpointCrashForTesting(-1);
    EXPECT_TRUE(k.timedOut);

    MapperConfig resume = cfg;
    resume.checkpointPath = path;
    const MapperResult r = exploreSpace(model, space, resume);
    EXPECT_TRUE(r.resumed); // the surviving write is old but usable
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
    killed.checkpointEveryBatches = 2;
    killed.maxEvaluations = reference.evaluations / 2;
    const MapperResult k =
        exploreTiling(model, tiling, samples, cfg.seed, killed);
    EXPECT_TRUE(k.timedOut);
    EXPECT_EQ(k.stopReason, "evaluation budget");

    MapperConfig resume = cfg;
    resume.checkpointPath = path;
    resume.checkpointEveryBatches = 2;
    const MapperResult r =
        exploreTiling(model, tiling, samples, cfg.seed, resume);
    EXPECT_TRUE(r.resumed);
    expectEquivalentResults(r, reference);
}

} // namespace
} // namespace tileflow
