/**
 * @file
 * Pinned model outputs: one FNV-1a digest over the bit patterns of
 * the cycles, energy and per-level bytes the model computes for a
 * fixed set of mappings.
 *
 * The set is a seeded draw from each of the eight search spaces the
 * benchmark uses (Bert-S/Bert-B attention on Edge and Cloud, the CC1
 * conv chain on Edge and Cloud, and fig4.wl on Edge and on
 * tpu_like.arch through the front end) plus cases from every oracle
 * fuzz family. Each mapping goes through the full Evaluator, the
 * IncrementalEvaluator (over one cache per space, so later candidates
 * reuse earlier partials) and, when the lower bound can analyze it,
 * the compute roofline (LatencyModel::rooflineCycles).
 *
 * The full-vs-incremental and prune-on-vs-off checks elsewhere compare
 * two paths of the current code with each other; they cannot see a
 * change that moves every path at once, such as a new floating-point
 * summation order in the shared data-movement core. This digest was
 * computed on the code before the compulsory-traffic bound was
 * removed (the roofline fold replaced that bound's), and must not
 * change unless the model's numbers are meant to.
 */

#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/incremental.hpp"
#include "analysis/latency.hpp"
#include "analysis/lowerbound.hpp"
#include "analysis/subtreecache.hpp"
#include "arch/presets.hpp"
#include "common/rng.hpp"
#include "frontend/loader.hpp"
#include "ir/builders.hpp"
#include "ir/shapes.hpp"
#include "mapper/encoding.hpp"
#include "oracle/fuzz.hpp"

namespace tileflow {
namespace {

/** FNV-1a over 64-bit words. */
class Digest
{
  public:
    void
    add(uint64_t word)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (word >> (8 * i)) & 0xff;
            hash_ *= 0x100000001b3ull;
        }
    }

    void
    add(double value)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        add(bits);
    }

    void
    add(const EvalResult& r)
    {
        add(uint64_t(r.valid));
        add(r.cycles);
        add(r.energyPJ);
        for (const LevelTraffic& level : r.dm.levels) {
            add(level.readBytes);
            add(level.fillBytes);
            add(level.updateBytes);
        }
    }

    uint64_t value() const { return hash_; }

  private:
    uint64_t hash_ = 0xcbf29ce484222325ull;
};

/** Folds the full, incremental and roofline outputs of one mapping;
 *  returns whether the full model accepted it. */
bool
fold(Digest& digest, const Evaluator& full,
     const IncrementalEvaluator& inc, const LowerBoundEvaluator& lb,
     const AnalysisTree& tree)
{
    const EvalResult result = full.evaluate(tree);
    digest.add(result);
    digest.add(inc.evaluate(tree));
    if (lb.analyzable(tree))
        digest.add(LatencyModel(full.workload(), full.spec())
                       .rooflineCycles(tree));
    return result.valid;
}

/** `count` uniform draws from every knob of the space; returns how
 *  many the full model accepted. */
int
foldSpace(Digest& digest, const Workload& workload, const ArchSpec& spec,
          const MappingSpace& space, uint64_t seed, int count)
{
    int valid = 0;
    const Evaluator full(workload, spec);
    SubtreeCache cache;
    const IncrementalEvaluator inc(full, cache);
    const LowerBoundEvaluator lb(full);
    Rng rng(seed);
    for (int i = 0; i < count; ++i) {
        std::vector<int64_t> choices;
        for (const Knob& knob : space.knobs())
            choices.push_back(rng.choice(knob.choices));
        valid += fold(digest, full, inc, lb, space.build(choices));
    }
    return valid;
}

TEST(ModelDigest, PinnedOverBenchmarkSpacesAndFuzzFamilies)
{
    Digest digest;
    uint64_t seed = 0xD16E57;
    int valid = 0;

    for (const char* shape : {"Bert-S", "Bert-B"}) {
        const Workload attn = buildAttention(attentionShape(shape), false);
        for (const ArchSpec& spec : {makeEdgeArch(), makeCloudArch()}) {
            valid += foldSpace(digest, attn, spec,
                               makeAttentionSpace(attn, spec), ++seed, 64);
        }
    }
    const Workload cc1 = buildConvChain(convChainShape("CC1"));
    for (const ArchSpec& spec : {makeCloudArch(), makeEdgeArch()})
        valid += foldSpace(digest, cc1, spec, makeConvChainSpace(cc1, spec),
                           ++seed, 64);
    const Workload fig4 =
        loadWorkloadSpecOrDie(TILEFLOW_SPECS_DIR "/fig4.wl");
    for (const ArchSpec& spec :
         {makeEdgeArch(),
          loadArchSpecOrDie(TILEFLOW_SPECS_DIR "/tpu_like.arch")}) {
        valid += foldSpace(digest, fig4, spec, makeChainSpace(fig4, spec),
                           ++seed, 64);
    }

    std::set<int> families;
    const ArchSpec validation = makeValidationArch();
    for (uint64_t index = 0; index < 40; ++index) {
        const FuzzCase fc = makeFuzzCase(0xD16E57, index);
        families.insert(fc.kind);
        const Evaluator full(*fc.workload, validation);
        SubtreeCache cache;
        const IncrementalEvaluator inc(full, cache);
        const LowerBoundEvaluator lb(full);
        valid += fold(digest, full, inc, lb, *fc.tree);
    }
    EXPECT_EQ(families.size(), 7u) << "not every fuzz family was drawn";
    EXPECT_GE(valid, 256) << "too few accepted mappings (" << valid << ")";

    EXPECT_EQ(digest.value(), 0x3f6d8f9b2ba48183ull)
        << "model outputs changed: 0x" << std::hex << digest.value();
}

} // namespace
} // namespace tileflow
