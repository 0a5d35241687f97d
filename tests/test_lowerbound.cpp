/**
 * @file
 * Branch-and-bound lower-bound tests (analysis/lowerbound.hpp).
 *
 * The core soundness property: for every candidate across all oracle
 * fuzz families, LowerBoundEvaluator::bound(tree).cycles <= the full
 * evaluator's cycles (compared as exact doubles — the bound is
 * admissible bitwise, not just mathematically), against both the plain
 * and the incremental evaluation paths; and the capacity screen only
 * ever rejects trees the full evaluator also rejects. The roofline is
 * the full model's compute term, bitwise, and so <= its cycles. Plus
 * the search integration:
 * prune-on and prune-off searches find equal-cost best mappings (GA
 * and MCTS), kill/resume with pruning stays bit-identical, the guard's
 * candidate accounting partitions exactly into pruned + evaluated and
 * its prunes into per-tier buckets, and the guard's verdict — screened
 * in tiers, or replayed from a memoized bound-only cache entry —
 * equals the one a fresh bound() gives at every threshold.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/incremental.hpp"
#include "analysis/latency.hpp"
#include "analysis/lowerbound.hpp"
#include "arch/presets.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "dataflows/attention.hpp"
#include "ir/builders.hpp"
#include "ir/shapes.hpp"
#include "mapper/mapper.hpp"
#include "oracle/fuzz.hpp"

namespace tileflow {
namespace {

const ArchSpec&
fuzzSpec()
{
    static const ArchSpec spec = makeValidationArch();
    return spec;
}

bool
sameBits(double a, double b)
{
    uint64_t x = 0;
    uint64_t y = 0;
    std::memcpy(&x, &a, sizeof x);
    std::memcpy(&y, &b, sizeof y);
    return x == y;
}

/** mapper.bound_pruned and its per-tier buckets, from the registry. */
struct PruneTally
{
    uint64_t total = 0;
    uint64_t roofline = 0;
    uint64_t capacity = 0;

    static PruneTally
    now()
    {
        const MetricsRegistry& m = MetricsRegistry::global();
        return {m.counterValue("mapper.bound_pruned"),
                m.counterValue("mapper.bound_pruned_roofline"),
                m.counterValue("mapper.bound_pruned_capacity")};
    }

    PruneTally
    since(const PruneTally& before) const
    {
        return {total - before.total, roofline - before.roofline,
                capacity - before.capacity};
    }

    uint64_t buckets() const
    {
        return roofline + capacity;
    }

    uint64_t
    of(BoundTier tier) const
    {
        switch (tier) {
        case BoundTier::Roofline:
            return roofline;
        case BoundTier::Capacity:
            return capacity;
        case BoundTier::None:
            break;
        }
        return 0;
    }
};

/** The tier that decided a pruned verdict: with two tiers, the
 *  capacity screen exactly when the verdict is a capacity reject. */
BoundTier
tierOf(const CachedEval& pruned)
{
    return pruned.capacityReject ? BoundTier::Capacity : BoundTier::Roofline;
}

/**
 * The screen's roofline on one analyzable tree: it is bound()'s cycles
 * (unless the capacity screen rejects), and when the full model
 * accepts the tree it is that model's compute term, bitwise, and so
 * <= its cycles. Returns whether the full evaluator accepted.
 */
bool
expectRooflineBelowExact(const Evaluator& model,
                         const LowerBoundEvaluator& lbe,
                         const AnalysisTree& tree, const std::string& what)
{
    const double roofline =
        LatencyModel(model.workload(), model.spec()).rooflineCycles(tree);
    const LowerBound lb = lbe.bound(tree);
    if (!lb.capacityReject) {
        EXPECT_TRUE(sameBits(roofline, lb.cycles))
            << what << ": roofline " << roofline << " vs bound "
            << lb.cycles;
    }
    const EvalResult full = model.evaluate(tree);
    if (full.valid) {
        EXPECT_LE(roofline, full.cycles) << what;
        EXPECT_TRUE(sameBits(roofline, full.latency.computeCycles))
            << what;
    }
    return full.valid;
}

/** Call `visit` on every choice vector of `space`, knob by knob. */
void
forEachMapping(const MappingSpace& space,
               const std::function<void(const std::vector<int64_t>&)>& visit)
{
    const std::vector<Knob>& knobs = space.knobs();
    std::vector<size_t> digits(knobs.size(), 0);
    for (bool more = true; more;) {
        std::vector<int64_t> choices;
        for (size_t k = 0; k < knobs.size(); ++k)
            choices.push_back(knobs[k].choices[digits[k]]);
        visit(choices);
        // Odometer step; `more` ends once every digit wrapped.
        more = false;
        for (size_t k = 0; k < knobs.size() && !more; ++k) {
            more = ++digits[k] < knobs[k].choices.size();
            if (!more)
                digits[k] = 0;
        }
    }
}

void
collectNodes(Node* node, std::vector<Node*>& scopes,
             std::vector<Node*>& tiles)
{
    if (node->isScope())
        scopes.push_back(node);
    if (node->isTile() && !node->loops().empty())
        tiles.push_back(node);
    for (const auto& child : node->children())
        collectNodes(child.get(), scopes, tiles);
}

/** Single-knob mutation, mirroring the GA / MCTS moves (and the
 *  incremental-evaluation test): scope-kind flip, loop-kind flip, or
 *  loop-extent change. Invalid mutants are kept — the bound must stay
 *  sound (or decline to analyze) on those too. */
bool
mutateOneKnob(Rng& rng, AnalysisTree& tree)
{
    if (!tree.hasRoot())
        return false;
    std::vector<Node*> scopes;
    std::vector<Node*> tiles;
    collectNodes(tree.root(), scopes, tiles);

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
        if (pick == 2 && !tiles.empty()) {
            Node* tile = tiles[rng.index(tiles.size())];
            Loop& loop = tile->loops()[rng.index(tile->loops().size())];
            loop.kind = loop.isTemporal() ? LoopKind::Spatial
                                          : LoopKind::Temporal;
            return true;
        }
        if (!tiles.empty()) {
            Node* tile = tiles[rng.index(tiles.size())];
            Loop& loop = tile->loops()[rng.index(tile->loops().size())];
            const int64_t next = rng.uniformInt(1, 4);
            if (next == loop.extent)
                continue;
            loop.extent = next;
            return true;
        }
    }
    return false;
}

} // namespace

// -------------------------------------------------------------------
// The tentpole property: admissibility on every fuzz candidate
// -------------------------------------------------------------------

TEST(LowerBound, AdmissibleOnEveryFuzzCandidate)
{
    Rng rng(0xB0B0u);
    std::set<int> families_seen;
    int candidates = 0;
    int valid_full = 0;
    int capacity_rejects = 0;

    for (uint64_t index = 0; index < 60; ++index) {
        FuzzCase fc = makeFuzzCase(0x10BBu, index);
        families_seen.insert(fc.kind);

        const Evaluator full(*fc.workload, fuzzSpec());
        SubtreeCache cache;
        const IncrementalEvaluator inc(full, cache);
        const LowerBoundEvaluator lbe(full);

        // Warm candidate plus 9 single-knob mutants: 600 total.
        for (int m = 0; m < 10; ++m) {
            if (m > 0 && !mutateOneKnob(rng, *fc.tree))
                break;
            ++candidates;
            const LowerBound lb = lbe.bound(*fc.tree);
            const EvalResult a = full.evaluate(*fc.tree);
            const EvalResult b = inc.evaluate(*fc.tree);

            if (lb.analyzed) {
                expectRooflineBelowExact(
                    full, lbe, *fc.tree,
                    concat("case ", index, " mutation ", m, " (",
                           fc.summary, ")"));
            }
            if (lb.capacityReject) {
                // The screen's contract: a reject is a full-evaluator
                // verdict, never a false positive.
                ++capacity_rejects;
                EXPECT_FALSE(a.valid)
                    << "capacity screen rejected a tree the full "
                       "evaluator accepts: case "
                    << index << " mutation " << m << " ("
                    << lb.capacityReason << ") " << fc.summary;
                continue;
            }
            if (!a.valid)
                continue; // full evaluator classifies; nothing to bound
            ++valid_full;
            ASSERT_TRUE(lb.analyzed)
                << "bound declined a tree the full evaluator accepts: "
                << fc.summary;
            EXPECT_LE(lb.cycles, a.cycles)
                << "bound above full cycles: case " << index
                << " mutation " << m << " (" << fc.summary << ")";
            EXPECT_LE(lb.cycles, b.cycles)
                << "bound above incremental cycles: case " << index
                << " mutation " << m << " (" << fc.summary << ")";
            EXPECT_GE(lb.cycles, 0.0);
            EXPECT_TRUE(std::isfinite(lb.cycles));
        }
    }

    EXPECT_GE(candidates, 500);
    EXPECT_GT(valid_full, 0);
    EXPECT_EQ(families_seen.size(), 7u)
        << "fuzz stream did not cover every generator family";
    // makeFuzzCase keeps its trees capacity-feasible by construction,
    // so rejects here are rare; the starved-arch test below guarantees
    // the screen fires.
    (void)capacity_rejects;
}

TEST(LowerBound, TierBoundsOrderedOverTheBenchmarkSpaces)
{
    // Every mapping of the Bert-S attention and CC1 conv-chain spaces
    // on Edge, enumerated knob by knob.
    const ArchSpec edge = makeEdgeArch();
    const Workload attn = buildAttention(attentionShape("Bert-S"), false);
    const Workload chain = buildConvChain(convChainShape("CC1"));
    const MappingSpace attn_space = makeAttentionSpace(attn, edge);
    const MappingSpace chain_space = makeConvChainSpace(chain, edge);

    for (const auto& [workload, space, size] :
         {std::tuple{&attn, &attn_space, 3200},
          std::tuple{&chain, &chain_space, 2304}}) {
        const Evaluator model(*workload, edge);
        const LowerBoundEvaluator lbe(model);
        int mappings = 0;
        int accepted = 0;
        forEachMapping(*space, [&](const std::vector<int64_t>& choices) {
            const AnalysisTree tree = space->build(choices);
            ++mappings;
            if (lbe.analyzable(tree)) {
                accepted += expectRooflineBelowExact(
                    model, lbe, tree,
                    concat(workload->name(), " mapping ", mappings));
            }
        });
        EXPECT_EQ(mappings, size) << workload->name();
        EXPECT_EQ(accepted, size) << workload->name();
    }
}

TEST(LowerBound, CapacityScreenAgreesWithFullEvaluatorWhenStarved)
{
    // Starve every on-chip buffer to one byte: the screen must now
    // fire, and every firing must agree with the full evaluator.
    ArchSpec starved = makeValidationArch();
    for (size_t i = 0; i + 1 < starved.levels().size(); ++i)
        starved.levels()[i].capacityBytes = 1;

    int rejects = 0;
    for (uint64_t index = 0; index < 20; ++index) {
        const FuzzCase fc = makeFuzzCase(0xCAFEu, index);
        const Evaluator full(*fc.workload, starved);
        const LowerBoundEvaluator lbe(full);
        std::string reason;
        if (lbe.capacityRejects(*fc.tree, &reason)) {
            ++rejects;
            EXPECT_FALSE(reason.empty());
            EXPECT_FALSE(full.evaluate(*fc.tree).valid)
                << fc.summary << " (" << reason << ")";
        }
    }
    EXPECT_GT(rejects, 0)
        << "capacity screen never fired on a one-byte arch";
}

TEST(LowerBound, ScreenNeverFiresWhenMemoryUnenforced)
{
    ArchSpec starved = makeValidationArch();
    for (size_t i = 0; i + 1 < starved.levels().size(); ++i)
        starved.levels()[i].capacityBytes = 1;
    EvalOptions no_memory;
    no_memory.enforceMemory = false;

    for (uint64_t index = 0; index < 5; ++index) {
        const FuzzCase fc = makeFuzzCase(0xCAFEu, index);
        const LowerBoundEvaluator lbe(*fc.workload, starved, no_memory);
        EXPECT_FALSE(lbe.capacityRejects(*fc.tree));
        // And the roofline still stands against that evaluator.
        const Evaluator full(*fc.workload, starved, no_memory);
        const EvalResult r = full.evaluate(*fc.tree);
        const LowerBound lb = lbe.bound(*fc.tree);
        if (r.valid && lb.analyzed) {
            EXPECT_LE(lb.cycles, r.cycles) << fc.summary;
        }
    }
}

TEST(LowerBound, DegenerateTrees)
{
    const FuzzCase fc = makeFuzzCase(0x1u, 0);
    const LowerBoundEvaluator lbe(*fc.workload, fuzzSpec());

    // Empty tree: nothing to analyze, nothing to reject.
    const AnalysisTree empty(*fc.workload);
    const LowerBound lb = lbe.bound(empty);
    EXPECT_FALSE(lb.analyzed);
    EXPECT_FALSE(lb.capacityReject);
    EXPECT_EQ(lb.cycles, 0.0);
    EXPECT_FALSE(lbe.capacityRejects(empty));
}

// -------------------------------------------------------------------
// Guard integration: the bound-first path
// -------------------------------------------------------------------

TEST(LowerBound, GuardPrunesAgainstAnUnbeatableThreshold)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionTilingSpace(w, edge);
    const LowerBoundEvaluator lbe(model);

    // Unpruned baseline: the default choices evaluate fully.
    const CachedEval plain =
        guardedEvaluate(model, space, space.defaultChoices());
    EXPECT_FALSE(plain.pruned);

    // A threshold no candidate can beat: every analyzable candidate
    // is discarded on its bound alone — no full evaluation, no
    // failure classification, and a verdict callers must not cache.
    const BoundPrune prune{&lbe, 1e-9};
    const CachedEval pruned =
        guardedEvaluate(model, space, space.defaultChoices(), &prune);
    EXPECT_TRUE(pruned.pruned);
    EXPECT_FALSE(pruned.valid);
    EXPECT_FALSE(pruned.failed);

    // +inf threshold: only the capacity screen can prune, so a
    // feasible candidate passes through to full evaluation with the
    // identical result.
    const BoundPrune no_threshold{&lbe,
                                  std::numeric_limits<double>::infinity()};
    const CachedEval through = guardedEvaluate(
        model, space, space.defaultChoices(), &no_threshold);
    EXPECT_EQ(through.pruned, false);
    EXPECT_EQ(through.valid, plain.valid);
    EXPECT_EQ(through.cycles, plain.cycles);
}

// -------------------------------------------------------------------
// Guard verdicts: the tiered screen and memoized bounds
// -------------------------------------------------------------------

namespace {

struct VerdictStats
{
    int trees = 0;
    int prunes = 0;
    int capacityRejects = 0;
    int memoVerdicts = 0;
    int handOffs = 0;
};

/**
 * The guard's verdict on `tree` — screened in tiers, and replayed
 * from every bound-only entry a pruned verdict leaves — must equal
 * `capacityReject || bound >= T` from a fresh LowerBoundEvaluator::
 * bound() at every threshold T; a surviving candidate gets the full
 * evaluator's verdict. With the roofline throwing, only the capacity
 * screen can prune.
 */
void
expectGuardMatchesFreshBound(const Evaluator& model,
                             const AnalysisTree& tree, Rng& rng,
                             const std::string& what, VerdictStats& stats)
{
    int builds = 0;
    const MappingSpace space({}, [&](const std::vector<int64_t>&) {
        ++builds;
        return tree.clone();
    });
    const LowerBoundEvaluator lbe(model);
    const LowerBound fresh = lbe.bound(tree);
    const EvalResult full = model.evaluate(tree);
    const double inf = std::numeric_limits<double>::infinity();
    ++stats.trees;

    // Thresholds around the roofline, which the guard computes even
    // for trees bound() rejects on capacity alone, and where the
    // screen hands over from its first tier to the capacity screen.
    std::vector<double> thresholds = {inf};
    if (full.valid)
        thresholds.push_back(full.cycles);
    const double roofline =
        fresh.analyzed ? LatencyModel(model.workload(), model.spec())
                             .rooflineCycles(tree)
                       : (full.valid ? full.cycles : 1000.0);
    thresholds.push_back(roofline);
    thresholds.push_back(std::nextafter(roofline, inf));
    thresholds.push_back(std::nextafter(roofline, 0.0));
    for (int i = 0; i < 3; ++i)
        thresholds.push_back(roofline * (0.5 + rng.uniformReal()));

    auto expected = [&](double t) {
        return fresh.analyzed &&
               (fresh.capacityReject || fresh.cycles >= t);
    };
    // One guard call; its prune, if any, counts once, under its tier.
    auto guarded = [&](const BoundPrune& prune) {
        const PruneTally before = PruneTally::now();
        const CachedEval got = guardedEvaluate(model, space, {}, &prune);
        const PruneTally delta = PruneTally::now().since(before);
        EXPECT_EQ(delta.total, got.pruned ? 1u : 0u) << what;
        EXPECT_EQ(delta.buckets(), delta.total) << what;
        if (got.pruned) {
            EXPECT_EQ(delta.of(tierOf(got)), 1u) << what;
        }
        return got;
    };
    auto check = [&](const CachedEval& got, double t, const char* path) {
        EXPECT_EQ(got.pruned, expected(t))
            << what << " (" << path << ", T=" << t << ")";
        if (!got.pruned && !got.failed) {
            EXPECT_EQ(got.valid, full.valid) << what << " (" << path << ")";
            if (full.valid) {
                EXPECT_EQ(got.cycles, full.cycles) << what;
            }
        }
    };

    // The roofline decides a prune whenever it reaches `t`.
    auto expected_tier = [&](double t) {
        return roofline >= t ? BoundTier::Roofline : BoundTier::Capacity;
    };

    // One bound-only entry per tier: entries of one tree and tier are
    // equal.
    std::vector<CachedEval> memos;
    auto remember = [&](const CachedEval& pruned) {
        for (const CachedEval& memo : memos) {
            if (memo.capacityReject == pruned.capacityReject)
                return;
        }
        memos.push_back(boundOnlyEntry(pruned));
    };
    for (double t : thresholds) {
        const CachedEval got = guarded(BoundPrune{&lbe, t});
        check(got, t, "tiered");
        if (got.pruned) {
            ++stats.prunes;
            EXPECT_EQ(tierOf(got), expected_tier(t))
                << what << " (T=" << t << ")";
            remember(got);
        }
    }
    if (fresh.capacityReject)
        ++stats.capacityRejects;

    // Replay each memo against every threshold; one that prunes on
    // its own never builds the tree. A roofline memo that led on to a
    // capacity prune leaves a capacity memo, which is replayed too.
    for (size_t m = 0; m < memos.size(); ++m) {
        for (double t : thresholds) {
            const CachedEval memo = memos[m];
            const int builds_before = builds;
            const CachedEval got = guarded(BoundPrune{&lbe, t, &memo});
            check(got, t, "memo");
            ++stats.memoVerdicts;
            if (memo.capacityReject || memo.boundCycles >= t) {
                EXPECT_EQ(builds, builds_before) << what;
            }
            if (got.pruned && got.capacityReject != memo.capacityReject) {
                EXPECT_TRUE(got.capacityReject) << what;
                ++stats.handOffs;
                remember(got);
            }
        }
    }

    // A throwing roofline leaves the capacity screen as the only
    // prune, exactly as bound() (screen first) would.
    armScreenFaultForTesting(1);
    const BoundPrune prune{&lbe, 0.0};
    const CachedEval got = guardedEvaluate(model, space, {}, &prune);
    armScreenFaultForTesting(0);
    EXPECT_EQ(got.pruned, fresh.analyzed && fresh.capacityReject)
        << what << " (roofline throws)";
    if (got.pruned) {
        EXPECT_TRUE(got.capacityReject) << what;
    } else if (!got.failed) {
        EXPECT_EQ(got.valid, full.valid) << what;
    }
}

/** One mapping drawn uniformly from every knob of `space`. */
std::vector<int64_t>
drawChoices(const MappingSpace& space, Rng& rng)
{
    std::vector<int64_t> choices;
    for (const Knob& knob : space.knobs())
        choices.push_back(rng.choice(knob.choices));
    return choices;
}

} // namespace

TEST(LowerBound, GuardVerdictMatchesFreshBoundOnFuzzFamilies)
{
    // Every fuzz family on the validation arch, and again with every
    // on-chip buffer starved to one byte, so the capacity screen
    // fires at T = +inf too.
    ArchSpec starved = makeValidationArch();
    for (size_t i = 0; i + 1 < starved.levels().size(); ++i)
        starved.levels()[i].capacityBytes = 1;

    Rng rng(0x7E57u);
    std::set<int> families;
    VerdictStats stats;
    for (uint64_t index = 0; index < 28; ++index) {
        FuzzCase fc = makeFuzzCase(0x3E3Du, index);
        families.insert(fc.kind);
        for (const ArchSpec* spec : {&fuzzSpec(), &std::as_const(starved)}) {
            const Evaluator model(*fc.workload, *spec);
            for (int m = 0; m < 2; ++m) {
                if (m > 0 && !mutateOneKnob(rng, *fc.tree))
                    break;
                expectGuardMatchesFreshBound(
                    model, *fc.tree, rng,
                    concat("case ", index, " mutation ", m, " ",
                           fc.summary),
                    stats);
            }
        }
    }
    EXPECT_EQ(families.size(), 7u);
    EXPECT_GT(stats.prunes, 0);
    EXPECT_GT(stats.capacityRejects, 0);
    EXPECT_GT(stats.memoVerdicts, 0);
    EXPECT_GT(stats.handOffs, 0)
        << "no roofline memo led on to a capacity prune";
}

TEST(LowerBound, GuardVerdictMatchesFreshBoundOnSearchSpaces)
{
    const ArchSpec edge = makeEdgeArch();
    const Workload attn = buildAttention(attentionShape("Bert-S"), false);
    const Workload chain = buildConvChain(convChainShape("CC1"));
    const MappingSpace attn_space = makeAttentionSpace(attn, edge);
    const MappingSpace chain_space = makeConvChainSpace(chain, edge);

    Rng rng(0x5A5Au);
    VerdictStats stats;
    for (const auto& [workload, space] :
         {std::pair{&attn, &attn_space}, std::pair{&chain, &chain_space}}) {
        const Evaluator model(*workload, edge);
        for (int draw = 0; draw < 12; ++draw) {
            const std::vector<int64_t> choices = drawChoices(*space, rng);
            AnalysisTree tree(*workload);
            try {
                tree = space->build(choices);
            } catch (const FatalError&) {
                continue; // the guard's build-failure path is tested elsewhere
            }
            expectGuardMatchesFreshBound(
                model, tree, rng,
                concat(workload->name(), " draw ", draw), stats);
        }
    }
    EXPECT_GE(stats.trees, 20);
    EXPECT_GT(stats.prunes, 0);
    EXPECT_GT(stats.memoVerdicts, 0);
}

TEST(LowerBound, MemoizedBoundsLeaveTheMctsTrajectoryUnchanged)
{
    // A tuner whose cache already holds every bound-only entry a first
    // run left behind (and no full verdict) must walk the identical
    // trajectory: a memoized bound decides exactly what a fresh one
    // would, it only skips the work.
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionTilingSpace(w, edge);
    const LowerBoundEvaluator lbe(model);

    auto run = [&](EvalCache& cache) {
        Rng rng(0xFACEu);
        MctsTuner tuner(model, space, rng);
        tuner.setCache(&cache);
        tuner.setBatch(8);
        tuner.setBoundPrune(&lbe);
        return tuner.tune(space.defaultChoices(), 400);
    };

    EvalCache first_cache;
    const MctsResult first = run(first_cache);
    EvalCache memo_cache;
    size_t memos = 0;
    first_cache.forEach([&](const std::vector<int64_t>& choices,
                            const CachedEval& value) {
        if (value.boundOnly) {
            memo_cache.insert(choices, value);
            ++memos;
        }
    });
    ASSERT_GT(memos, 0u);

    MetricsRegistry& metrics = MetricsRegistry::global();
    const uint64_t bevals0 = metrics.counterValue("mapper.bound_evals");
    const uint64_t memo0 = metrics.counterValue("mapper.bound_memo_hits");
    const MctsResult second = run(memo_cache);
    const uint64_t bevals =
        metrics.counterValue("mapper.bound_evals") - bevals0;
    const uint64_t memo_hits =
        metrics.counterValue("mapper.bound_memo_hits") - memo0;

    ASSERT_TRUE(first.found);
    EXPECT_EQ(second.bestChoices, first.bestChoices);
    EXPECT_EQ(second.bestCycles, first.bestCycles);
    EXPECT_EQ(second.trace, first.trace);
    EXPECT_EQ(second.evaluations, first.evaluations);
    EXPECT_EQ(second.boundPruned, first.boundPruned);
    // Bound-only entries are misses, so the hit/miss split is the
    // first run's too.
    EXPECT_EQ(second.cacheHits, first.cacheHits);
    EXPECT_EQ(second.cacheMisses, first.cacheMisses);
    EXPECT_GE(memo_hits, memos);
    EXPECT_LT(bevals, uint64_t(first.evaluations) + first.boundPruned);
}

// -------------------------------------------------------------------
// Search integration: equal-cost bests, accounting, kill/resume
// -------------------------------------------------------------------

namespace {

MapperConfig
smallGaConfig()
{
    MapperConfig cfg;
    cfg.rounds = 5;
    cfg.population = 6;
    cfg.tilingSamples = 15;
    cfg.seed = 0xB00B5u;
    cfg.threads = 1;
    return cfg;
}

} // namespace

TEST(LowerBound, GaPruneOnAndOffFindEqualCostBests)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionSpace(w, edge);

    MapperConfig on = smallGaConfig();
    on.boundPrune = true;
    MapperConfig off = smallGaConfig();
    off.boundPrune = false;

    const MapperResult a = exploreSpace(model, space, on);
    const MapperResult b = exploreSpace(model, space, off);
    ASSERT_TRUE(a.found);
    ASSERT_TRUE(b.found);
    EXPECT_EQ(a.bestCycles, b.bestCycles);

    // Pruning discards work, it never invents it: strictly fewer full
    // evaluations, with the difference visible in boundPruned.
    EXPECT_LT(a.evaluations, b.evaluations);
    EXPECT_GT(a.boundPruned, 0u);
    EXPECT_EQ(b.boundPruned, 0u);
}

TEST(LowerBound, MctsPruneOnAndOffFindEqualCostBests)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionTilingSpace(w, edge);

    MapperConfig on;
    on.threads = 1;
    on.boundPrune = true;
    MapperConfig off = on;
    off.boundPrune = false;

    const MapperResult a =
        exploreTiling(model, space, 300, 0x5EEDu, on);
    const MapperResult b =
        exploreTiling(model, space, 300, 0x5EEDu, off);
    ASSERT_TRUE(a.found);
    ASSERT_TRUE(b.found);
    EXPECT_EQ(a.bestCycles, b.bestCycles);
    EXPECT_LT(a.evaluations, b.evaluations);
    EXPECT_GT(a.boundPruned, 0u);
    EXPECT_EQ(b.boundPruned, 0u);
}

TEST(LowerBound, CandidateAccountingPartitionsExactly)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionTilingSpace(w, edge);

    MetricsRegistry& metrics = MetricsRegistry::global();
    const uint64_t cand0 = metrics.counterValue("mapper.candidates");
    const uint64_t pruned0 = metrics.counterValue("mapper.bound_pruned");
    const uint64_t evals0 = metrics.counterValue("mapper.evaluations");
    const uint64_t bevals0 = metrics.counterValue("mapper.bound_evals");
    const uint64_t memo0 = metrics.counterValue("mapper.bound_memo_hits");
    const uint64_t tight0 =
        metrics.histogram("mapper.bound_tightness").count();

    MapperConfig cfg;
    cfg.threads = 1;
    const MapperResult r = exploreTiling(model, space, 200, 7u, cfg);

    const uint64_t cand =
        metrics.counterValue("mapper.candidates") - cand0;
    const uint64_t pruned =
        metrics.counterValue("mapper.bound_pruned") - pruned0;
    const uint64_t evals =
        metrics.counterValue("mapper.evaluations") - evals0;
    const uint64_t bevals =
        metrics.counterValue("mapper.bound_evals") - bevals0;
    const uint64_t memo =
        metrics.counterValue("mapper.bound_memo_hits") - memo0;
    const uint64_t tight =
        metrics.histogram("mapper.bound_tightness").count() - tight0;

    // Every candidate the guard saw was pruned or fully evaluated.
    EXPECT_EQ(cand, pruned + evals);
    // The search result reports exactly the registry's deltas.
    EXPECT_EQ(r.boundPruned, pruned);
    EXPECT_EQ(uint64_t(r.evaluations), evals);
    // Every prune was preceded by a bound, computed or read from a
    // bound-only cache entry, and tightness is only observed for
    // bounded candidates that were then evaluated.
    EXPECT_GE(bevals + memo, pruned);
    EXPECT_LE(memo, cand);
    EXPECT_LE(tight, evals);
    // Repeats of pruned mappings reuse the memoized bound.
    EXPECT_GT(memo, 0u);
}

TEST(LowerBound, TightnessObservesTheRooflineOfEvaluatedCandidates)
{
    // Every screened candidate that goes on to a full evaluation
    // feeds mapper.bound_tightness its roofline, as a percentage of
    // the exact cycles: never above 100, since the roofline is
    // admissible.
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionSpace(w, edge);

    MetricsRegistry& metrics = MetricsRegistry::global();
    const Histogram& tightness = metrics.histogram("mapper.bound_tightness");
    const uint64_t tight0 = tightness.count();
    const uint64_t evals0 = metrics.counterValue("mapper.evaluations");

    const MapperResult r = exploreSpace(model, space, smallGaConfig());
    ASSERT_TRUE(r.found);
    ASSERT_GT(r.boundPruned, 0u);

    const uint64_t tight = tightness.count() - tight0;
    const uint64_t evals =
        metrics.counterValue("mapper.evaluations") - evals0;
    EXPECT_GT(tight, 0u) << "no evaluated candidate fed the histogram";
    EXPECT_LE(tight, evals);
    EXPECT_LE(tightness.maxNs(), 100u);
}

TEST(LowerBound, MctsKillResumeWithPruningIsBitIdentical)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionTilingSpace(w, edge);

    MapperConfig cfg;
    cfg.threads = 1;

    const MapperResult reference =
        exploreTiling(model, space, 300, 42u, cfg);
    ASSERT_TRUE(reference.found);
    ASSERT_GT(reference.evaluations, 0);
    ASSERT_GT(reference.boundPruned, 0u);

    const std::string path = testing::TempDir() + "lb_mcts.ckpt";
    std::remove(path.c_str());

    MapperConfig killed = cfg;
    killed.checkpointPath = path;
    killed.maxEvaluations = std::max(1, reference.evaluations / 2);
    const MapperResult k = exploreTiling(model, space, 300, 42u, killed);
    EXPECT_TRUE(k.timedOut);
    EXPECT_LE(k.evaluations, reference.evaluations);

    MapperConfig resume = cfg;
    resume.checkpointPath = path;
    const MapperResult r = exploreTiling(model, space, 300, 42u, resume);
    EXPECT_TRUE(r.resumed);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.bestCycles, reference.bestCycles);
    EXPECT_EQ(r.bestChoices, reference.bestChoices);
    EXPECT_EQ(r.evaluations, reference.evaluations);
    EXPECT_EQ(r.boundPruned, reference.boundPruned);
    EXPECT_EQ(r.failureHistogram, reference.failureHistogram);
    std::remove(path.c_str());
}

TEST(LowerBound, GaKillResumeWithPruningIsBitIdentical)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionSpace(w, edge);

    const MapperConfig cfg = smallGaConfig();
    const MapperResult reference = exploreSpace(model, space, cfg);
    ASSERT_TRUE(reference.found);
    ASSERT_GT(reference.evaluations, 0);
    ASSERT_GT(reference.boundPruned, 0u);

    const std::string path = testing::TempDir() + "lb_ga.ckpt";
    std::remove(path.c_str());

    MapperConfig killed = cfg;
    killed.checkpointPath = path;
    killed.maxEvaluations = std::max(1, reference.evaluations / 2);
    const MapperResult k = exploreSpace(model, space, killed);
    EXPECT_TRUE(k.timedOut);

    MapperConfig resume = cfg;
    resume.checkpointPath = path;
    const MapperResult r = exploreSpace(model, space, resume);
    EXPECT_TRUE(r.resumed);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.bestCycles, reference.bestCycles);
    EXPECT_EQ(r.bestChoices, reference.bestChoices);
    EXPECT_EQ(r.evaluations, reference.evaluations);
    EXPECT_EQ(r.boundPruned, reference.boundPruned);
    std::remove(path.c_str());
}

TEST(LowerBound, PruneTiersPartitionTheTotalAcrossKillResume)
{
    // Every prune counts under exactly one bucket: the tier that
    // decided it. A resumed search re-runs its prunes, so that holds
    // across kill/resume too.
    const Workload w = buildAttention(attentionShape("Bert-B"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionTilingSpace(w, edge);
    const std::string path = testing::TempDir() + "lb_tiers.ckpt";
    std::remove(path.c_str());

    MapperConfig cfg;
    cfg.threads = 1;
    const int full_evals =
        exploreTiling(model, space, 300, 42u, cfg).evaluations;
    cfg.checkpointPath = path;
    MapperConfig killed = cfg;
    // Most candidates prune once the first batch has set a best, so
    // a kill at the last evaluation leaves prunes on both sides.
    killed.maxEvaluations = std::max(1, full_evals - 1);
    const PruneTally before_kill = PruneTally::now();
    const MapperResult k = exploreTiling(model, space, 300, 42u, killed);
    const PruneTally kill = PruneTally::now().since(before_kill);
    ASSERT_TRUE(k.timedOut);
    EXPECT_EQ(kill.total, k.boundPruned);
    EXPECT_EQ(kill.buckets(), kill.total);
    EXPECT_GT(kill.roofline, 0u);

    const PruneTally before_resume = PruneTally::now();
    const MapperResult r = exploreTiling(model, space, 300, 42u, cfg);
    const PruneTally resumed = PruneTally::now().since(before_resume);
    ASSERT_TRUE(r.resumed);
    EXPECT_EQ(resumed.total, r.boundPruned);
    EXPECT_EQ(resumed.buckets(), resumed.total);
    std::remove(path.c_str());
}

TEST(LowerBound, DeeperTierPruneRefreshesItsMemo)
{
    // Seed every mapping of a tiling space with a roofline memo whose
    // bound (0) never prunes: each candidate the tuner prunes is then
    // decided by the capacity screen, and its entry must be replaced
    // by a capacity entry, so a later replay prunes without building
    // the tree. The default 4 MB L1 rejects nothing; a 64 KB one
    // makes the screen fire.
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch(64 * 1024);
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionTilingSpace(w, edge);
    const LowerBoundEvaluator lbe(model);

    EvalCache cache;
    CachedEval seed;
    seed.boundOnly = true;
    seed.boundCycles = 0.0;
    forEachMapping(space, [&](const std::vector<int64_t>& choices) {
        cache.insert(choices, seed);
    });

    Rng rng(0xFACEu);
    MctsTuner tuner(model, space, rng);
    tuner.setCache(&cache);
    tuner.setBatch(8);
    tuner.setBoundPrune(&lbe);
    const MctsResult result = tuner.tune(space.defaultChoices(), 400);
    ASSERT_GT(result.boundPruned, 0u);

    size_t refreshed = 0;
    cache.forEach([&](const std::vector<int64_t>& choices,
                      const CachedEval& value) {
        if (!value.boundOnly || !value.capacityReject)
            return;
        ++refreshed;
        EXPECT_TRUE(lbe.capacityRejects(space.build(choices)));
    });
    EXPECT_GT(refreshed, 0u) << "no capacity prune replaced its memo";
}

} // namespace tileflow
