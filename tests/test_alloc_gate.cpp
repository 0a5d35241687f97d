/**
 * @file
 * Allocation gate for the per-candidate screen.
 *
 * A search judges each candidate tree with validation and then the
 * roofline tier of the lower bound; most candidates end there. This
 * binary checks that none of that allocates: validateTree on a tree it
 * has nothing to report about, LowerBoundEvaluator::screen when it
 * prunes at the roofline, and the workload's producer/consumer
 * lookups. A full data-movement analysis and a capacity screen that
 * passes do allocate (their results and scratch), but a fixed number
 * of times however large the tree is. It runs over seeded draws from the benchmark's mapping spaces
 * (Bert-S/B attention on Edge and Cloud, the CC1 conv chain on Cloud
 * and Edge, fig4.wl on Edge and tpu_like.arch) and over every
 * differential-fuzz family.
 *
 * It is a binary of its own because it replaces the global operator
 * new with one that counts calls per thread.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "analysis/datamovement.hpp"
#include "analysis/evaluator.hpp"
#include "analysis/latency.hpp"
#include "analysis/lowerbound.hpp"
#include "arch/presets.hpp"
#include "common/rng.hpp"
#include "core/validate.hpp"
#include "frontend/loader.hpp"
#include "ir/builders.hpp"
#include "ir/shapes.hpp"
#include "mapper/encoding.hpp"
#include "oracle/fuzz.hpp"

namespace {

thread_local uint64_t t_allocations = 0;

void*
countedAlloc(std::size_t size)
{
    ++t_allocations;
    return std::malloc(size == 0 ? 1 : size);
}

void*
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    ++t_allocations;
    const std::size_t a = std::size_t(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    return std::aligned_alloc(a, (size + a - 1) / a * a);
}

} // namespace

void*
operator new(std::size_t size)
{
    if (void* p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t size)
{
    return operator new(size);
}

void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    return countedAlloc(size);
}

void*
operator new[](std::size_t size, const std::nothrow_t&) noexcept
{
    return countedAlloc(size);
}

void*
operator new(std::size_t size, std::align_val_t align)
{
    if (void* p = countedAlignedAlloc(size, align))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t size, std::align_val_t align)
{
    return operator new(size, align);
}

// GCC flags free() on memory from operator new; here both sides are
// the malloc family by construction.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
#pragma GCC diagnostic pop

namespace tileflow {
namespace {

/** Allocations `fn` makes on this thread. */
template <typename Fn>
uint64_t
allocationsOf(Fn&& fn)
{
    const uint64_t before = t_allocations;
    fn();
    return t_allocations - before;
}

constexpr int kDrawsPerSpace = 48;
constexpr uint64_t kFuzzCases = 96;

/** One benchmark mapping space with the objects it refers to. */
struct Space
{
    std::string label;
    std::unique_ptr<Workload> workload;
    std::unique_ptr<ArchSpec> arch;
    std::unique_ptr<Evaluator> model;
    std::unique_ptr<MappingSpace> space;
};

using SpaceFactory = MappingSpace (*)(const Workload&, const ArchSpec&);

void
addSpace(std::vector<Space>& into, std::string label, Workload workload,
         ArchSpec arch, SpaceFactory make_space)
{
    Space s;
    s.label = std::move(label);
    s.workload = std::make_unique<Workload>(std::move(workload));
    s.arch = std::make_unique<ArchSpec>(std::move(arch));
    s.model = std::make_unique<Evaluator>(*s.workload, *s.arch);
    s.space = std::make_unique<MappingSpace>(
        make_space(*s.workload, *s.arch));
    into.push_back(std::move(s));
}

/** The eight spaces the repository benchmark searches and draws from. */
const std::vector<Space>&
benchmarkSpaces()
{
    static const std::vector<Space> spaces = [] {
        std::vector<Space> out;
        for (const char* shape : {"Bert-S", "Bert-B"}) {
            addSpace(out, std::string(shape) + "/Edge",
                     buildAttention(attentionShape(shape), false),
                     makeEdgeArch(), &makeAttentionSpace);
            addSpace(out, std::string(shape) + "/Cloud",
                     buildAttention(attentionShape(shape), false),
                     makeCloudArch(), &makeAttentionSpace);
        }
        const Workload cc1 = buildConvChain(convChainShape("CC1"));
        addSpace(out, "CC1/Cloud", cc1, makeCloudArch(),
                 &makeConvChainSpace);
        addSpace(out, "CC1/Edge", cc1, makeEdgeArch(), &makeConvChainSpace);
        const std::string specs = TILEFLOW_SPECS_DIR;
        const Workload fig4 = loadWorkloadSpecOrDie(specs + "/fig4.wl");
        addSpace(out, "fig4/Edge", fig4, makeEdgeArch(), &makeChainSpace);
        addSpace(out, "fig4/tpu_like", fig4,
                 loadArchSpecOrDie(specs + "/tpu_like.arch"),
                 &makeChainSpace);
        return out;
    }();
    return spaces;
}

/** A seeded uniform draw of one choice per knob. */
std::vector<int64_t>
drawChoices(const MappingSpace& space, Rng& rng)
{
    std::vector<int64_t> choices;
    for (const Knob& knob : space.knobs()) {
        const int64_t last = int64_t(knob.choices.size()) - 1;
        choices.push_back(knob.choices[size_t(rng.uniformInt(0, last))]);
    }
    return choices;
}

/** Trees drawn from `space`, seeded by its position. */
std::vector<AnalysisTree>
drawTrees(const Space& s, uint64_t seed)
{
    Rng rng(seed);
    std::vector<AnalysisTree> trees;
    for (int i = 0; i < kDrawsPerSpace; ++i)
        trees.push_back(s.space->build(drawChoices(*s.space, rng)));
    return trees;
}

/** validateTree on `tree`, with the allocations it made. */
uint64_t
validateCounted(const AnalysisTree& tree, const ArchSpec* arch,
                std::vector<std::string>& problems)
{
    problems = validateTree(tree, arch); // warm the function statics
    problems.clear();
    problems.shrink_to_fit();
    return allocationsOf([&] { problems = validateTree(tree, arch); });
}

TEST(AllocGate, ValidateTreeAllocatesNothingWhenItReportsNothing)
{
    uint64_t seed = 1;
    for (const Space& s : benchmarkSpaces()) {
        SCOPED_TRACE(s.label);
        int clean = 0;
        for (const AnalysisTree& tree : drawTrees(s, seed++)) {
            std::vector<std::string> problems;
            const uint64_t n = validateCounted(tree, s.arch.get(), problems);
            if (!problems.empty())
                continue;
            ++clean;
            EXPECT_EQ(n, 0u) << tree.str();
        }
        EXPECT_GT(clean, 0) << "no draw validated clean";
    }
}

TEST(AllocGate, ValidateTreeAllocatesNothingOnFuzzFamilies)
{
    std::set<int> clean_kinds;
    for (uint64_t i = 0; i < kFuzzCases; ++i) {
        const FuzzCase c = makeFuzzCase(/*seed=*/2024, i);
        SCOPED_TRACE(c.summary);
        std::vector<std::string> problems;
        const uint64_t n = validateCounted(*c.tree, nullptr, problems);
        if (!problems.empty())
            continue;
        clean_kinds.insert(c.kind);
        EXPECT_EQ(n, 0u);
    }
    // Families 0..6 (single ops, chains, fused and pipelined trees).
    EXPECT_EQ(clean_kinds.size(), 7u);
}

TEST(AllocGate, ScreenPrunedAtTheRooflineAllocatesNothing)
{
    uint64_t seed = 1;
    for (const Space& s : benchmarkSpaces()) {
        SCOPED_TRACE(s.label);
        const LowerBoundEvaluator bound(*s.model);
        const LatencyModel latency(*s.workload, *s.arch);
        int screened = 0;
        for (const AnalysisTree& tree : drawTrees(s, seed++)) {
            if (!validateTree(tree, s.arch.get()).empty())
                continue;
            // A threshold at the roofline prunes there: the first tier.
            const double roofline = latency.rooflineCycles(tree);
            BoundScreen screen = bound.screen(tree, roofline);
            const uint64_t n = allocationsOf(
                [&] { screen = bound.screen(tree, roofline); });
            ASSERT_TRUE(screen.pruned);
            ASSERT_EQ(screen.tier, BoundTier::Roofline);
            EXPECT_EQ(n, 0u) << tree.str();
            ++screened;
        }
        EXPECT_GT(screened, 0) << "no draw reached the screen";
    }
}

/** Every producer/consumer lookup over `w`'s tensors, counted. */
void
expectLookupsAllocateNothing(const Workload& w)
{
    SCOPED_TRACE(w.name());
    size_t sink = 0;
    const uint64_t n = allocationsOf([&] {
        for (size_t t = 0; t < w.tensors().size(); ++t) {
            const TensorId id = TensorId(t);
            sink += size_t(w.producerOf(id) + 1);
            sink += w.consumersOf(id).size();
            sink += w.isIntermediate(id) ? 1 : 0;
        }
    });
    EXPECT_EQ(n, 0u);
    EXPECT_GT(sink, 0u);
}

TEST(AllocGate, ProducerAndConsumerLookupsAllocateNothing)
{
    for (const Space& s : benchmarkSpaces())
        expectLookupsAllocateNothing(*s.workload);
    for (uint64_t i = 0; i < 16; ++i)
        expectLookupsAllocateNothing(*makeFuzzCase(2024, i).workload);
}

/**
 * Allocations of one exact DataMovementAnalyzer::analyze call, with
 * no slots: the result's `levels` and per-node table (2), plus the
 * per-call scratch, each of whose buffers is reserved once for the
 * whole tree: the step geometry (4), the child group (2), the access
 * plan, its per-child row offsets and its advance weights (3), the
 * resident table (1), the per-step and per-node child byte vectors
 * (2 + 3) and the two loop-index vectors (2). A buffer that stays
 * empty allocates nothing, so this is a cap, not an exact count.
 */
constexpr uint64_t kDataMovementAllocCap = 19;

/** Allocations of analyze(tree) after one warm-up call. */
uint64_t
dataMovementAllocations(const DataMovementAnalyzer& analyzer,
                        const AnalysisTree& tree)
{
    analyzer.analyze(tree); // warm the function statics
    return allocationsOf([&] { (void)analyzer.analyze(tree); });
}

TEST(AllocGate, DataMovementAnalyzeAllocationsDoNotScaleWithTheTree)
{
    uint64_t seed = 1;
    for (const Space& s : benchmarkSpaces()) {
        SCOPED_TRACE(s.label);
        const DataMovementAnalyzer analyzer(*s.workload, *s.arch);
        uint64_t most = 0;
        for (const AnalysisTree& tree : drawTrees(s, seed++)) {
            const uint64_t n = dataMovementAllocations(analyzer, tree);
            EXPECT_LE(n, kDataMovementAllocCap) << tree.str();
            most = std::max(most, n);
        }
        EXPECT_GT(most, 0u); // the counter sees the result's buffers
    }
    const ArchSpec spec = makeValidationArch();
    std::set<int> kinds;
    for (uint64_t i = 0; i < kFuzzCases; ++i) {
        const FuzzCase c = makeFuzzCase(/*seed=*/2024, i);
        SCOPED_TRACE(c.summary);
        const DataMovementAnalyzer analyzer(*c.workload, spec);
        EXPECT_LE(dataMovementAllocations(analyzer, *c.tree),
                  kDataMovementAllocCap);
        kinds.insert(c.kind);
    }
    EXPECT_EQ(kinds.size(), 7u);
}

/**
 * Allocations of one capacity screen that finds no overflow: the step
 * geometry's four buffers, the loop-index vector and the slice list,
 * each reserved once for the whole tree. It does not grow with the
 * number of Tile nodes screened.
 */
constexpr uint64_t kCapacityScreenAllocCap = 6;

/** capacityRejects(tree) after one warm-up call; `rejected` receives
 *  its verdict. */
uint64_t
capacityScreenAllocations(const LowerBoundEvaluator& bound,
                          const AnalysisTree& tree, bool& rejected)
{
    rejected = bound.capacityRejects(tree); // warm the function statics
    return allocationsOf([&] { rejected = bound.capacityRejects(tree); });
}

TEST(AllocGate, CapacityScreenThatPassesDoesNotScaleWithTheTree)
{
    uint64_t seed = 1;
    for (const Space& s : benchmarkSpaces()) {
        SCOPED_TRACE(s.label);
        const LowerBoundEvaluator bound(*s.model);
        int passed = 0;
        for (const AnalysisTree& tree : drawTrees(s, seed++)) {
            if (!validateTree(tree, s.arch.get()).empty())
                continue;
            bool rejected = false;
            const uint64_t n = capacityScreenAllocations(bound, tree, rejected);
            if (rejected)
                continue;
            EXPECT_LE(n, kCapacityScreenAllocCap) << tree.str();
            ++passed;
        }
        EXPECT_GT(passed, 0) << "no draw passed the capacity screen";
    }
    const ArchSpec spec = makeValidationArch();
    std::set<int> kinds;
    for (uint64_t i = 0; i < kFuzzCases; ++i) {
        const FuzzCase c = makeFuzzCase(/*seed=*/2024, i);
        SCOPED_TRACE(c.summary);
        if (!validateTree(*c.tree, &spec).empty())
            continue;
        const LowerBoundEvaluator bound(*c.workload, spec);
        bool rejected = false;
        const uint64_t n = capacityScreenAllocations(bound, *c.tree, rejected);
        if (rejected)
            continue;
        EXPECT_LE(n, kCapacityScreenAllocCap);
        kinds.insert(c.kind);
    }
    EXPECT_EQ(kinds.size(), 7u);
}

TEST(AllocGate, CounterSeesTheLibrarysAllocations)
{
    // The gate is only as good as its counter: a library call that
    // must allocate (it returns a fresh non-empty vector) is seen.
    const Workload w = buildMatmul("mm", 16, 16, 16);
    std::vector<int64_t> extents;
    EXPECT_GT(allocationsOf([&] { extents = w.dimExtents(); }), 0u);
}

} // namespace
} // namespace tileflow
