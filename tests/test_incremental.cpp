/**
 * @file
 * Incremental (subtree-memoized) evaluation tests.
 *
 * The core property: IncrementalEvaluator::evaluate is bit-identical
 * to Evaluator::evaluate on the same tree — every double compared by
 * bit pattern, every vector element for element — across repeated
 * single-knob mutations of every oracle fuzz family, with the
 * SubtreeCache warm from the previous evaluations. Plus unit tests
 * for the structural hashes, SubtreeCache, the EvalCache entry cap,
 * the enforcement-problem filtering, and the POISONED render path.
 */

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "analysis/incremental.hpp"
#include "arch/presets.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "mapper/evalcache.hpp"
#include "oracle/diff.hpp"
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
bitsEq(double a, double b)
{
    uint64_t x = 0;
    uint64_t y = 0;
    std::memcpy(&x, &a, sizeof x);
    std::memcpy(&y, &b, sizeof y);
    return x == y;
}

/** First bit-level mismatch between two EvalResults ("" if none). */
std::string
bitDiff(const EvalResult& a, const EvalResult& b)
{
    std::ostringstream os;
    auto fail = [&os](const std::string& what) {
        os << what;
        return os.str();
    };
    auto num = [&](const char* what, double x, double y) {
        os << what << ": " << x << " vs " << y;
        return os.str();
    };

    if (a.valid != b.valid)
        return fail("valid differs");
    if (a.problems != b.problems)
        return fail("problems differ");
    if (!bitsEq(a.cycles, b.cycles))
        return num("cycles", a.cycles, b.cycles);
    if (!bitsEq(a.energyPJ, b.energyPJ))
        return num("energyPJ", a.energyPJ, b.energyPJ);
    if (!bitsEq(a.utilization, b.utilization))
        return num("utilization", a.utilization, b.utilization);

    if (a.dm.levels.size() != b.dm.levels.size())
        return fail("dm.levels size differs");
    for (size_t i = 0; i < a.dm.levels.size(); ++i) {
        if (!bitsEq(a.dm.levels[i].readBytes, b.dm.levels[i].readBytes))
            return num("dm read", a.dm.levels[i].readBytes,
                       b.dm.levels[i].readBytes);
        if (!bitsEq(a.dm.levels[i].fillBytes, b.dm.levels[i].fillBytes))
            return num("dm fill", a.dm.levels[i].fillBytes,
                       b.dm.levels[i].fillBytes);
        if (!bitsEq(a.dm.levels[i].updateBytes,
                    b.dm.levels[i].updateBytes))
            return num("dm update", a.dm.levels[i].updateBytes,
                       b.dm.levels[i].updateBytes);
    }
    if (a.dm.perNode.size() != b.dm.perNode.size())
        return fail("dm.perNode size differs");
    for (auto ia = a.dm.perNode.begin(), ib = b.dm.perNode.begin();
         ia != a.dm.perNode.end(); ++ia, ++ib) {
        if (ia->first != ib->first)
            return fail("dm.perNode keys differ");
        if (!bitsEq(ia->second.loadBytes, ib->second.loadBytes))
            return num("perNode load", ia->second.loadBytes,
                       ib->second.loadBytes);
        if (!bitsEq(ia->second.storeBytes, ib->second.storeBytes))
            return num("perNode store", ia->second.storeBytes,
                       ib->second.storeBytes);
    }
    if (!bitsEq(a.dm.paddedOps, b.dm.paddedOps))
        return num("paddedOps", a.dm.paddedOps, b.dm.paddedOps);
    if (!bitsEq(a.dm.effectiveOps, b.dm.effectiveOps))
        return num("effectiveOps", a.dm.effectiveOps, b.dm.effectiveOps);
    if (!bitsEq(a.dm.effectiveMatrixOps, b.dm.effectiveMatrixOps))
        return num("effectiveMatrixOps", a.dm.effectiveMatrixOps,
                   b.dm.effectiveMatrixOps);

    if (a.resources.matrixPEs != b.resources.matrixPEs)
        return fail("resources.matrixPEs differs");
    if (a.resources.vectorLanes != b.resources.vectorLanes)
        return fail("resources.vectorLanes differs");
    if (a.resources.subCoresUsed != b.resources.subCoresUsed)
        return fail("resources.subCoresUsed differs");
    if (a.resources.footprintBytes != b.resources.footprintBytes)
        return fail("resources.footprintBytes differs");
    if (a.resources.fitsMemory != b.resources.fitsMemory ||
        a.resources.fitsCompute != b.resources.fitsCompute)
        return fail("resources fits flags differ");
    if (a.resources.violations != b.resources.violations)
        return fail("resources.violations differ");
    if (a.resources.memoryViolations != b.resources.memoryViolations)
        return fail("resources.memoryViolations differ");
    if (a.resources.computeViolations != b.resources.computeViolations)
        return fail("resources.computeViolations differ");

    if (!bitsEq(a.latency.cycles, b.latency.cycles))
        return num("latency.cycles", a.latency.cycles, b.latency.cycles);
    if (!bitsEq(a.latency.computeCycles, b.latency.computeCycles))
        return num("latency.computeCycles", a.latency.computeCycles,
                   b.latency.computeCycles);
    if (!bitsEq(a.latency.utilization, b.latency.utilization))
        return num("latency.utilization", a.latency.utilization,
                   b.latency.utilization);
    if (a.latency.nodeCycles.size() != b.latency.nodeCycles.size())
        return fail("latency.nodeCycles size differs");
    for (auto ia = a.latency.nodeCycles.begin(),
              ib = b.latency.nodeCycles.begin();
         ia != a.latency.nodeCycles.end(); ++ia, ++ib) {
        if (ia->first != ib->first)
            return fail("latency.nodeCycles keys differ");
        if (!bitsEq(ia->second, ib->second))
            return num("nodeCycles", ia->second, ib->second);
    }
    if (a.latency.levelAccessCycles.size() !=
        b.latency.levelAccessCycles.size())
        return fail("levelAccessCycles size differs");
    for (size_t i = 0; i < a.latency.levelAccessCycles.size(); ++i) {
        if (!bitsEq(a.latency.levelAccessCycles[i],
                    b.latency.levelAccessCycles[i]))
            return num("levelAccessCycles",
                       a.latency.levelAccessCycles[i],
                       b.latency.levelAccessCycles[i]);
    }

    if (!bitsEq(a.energy.macPJ, b.energy.macPJ))
        return num("energy.macPJ", a.energy.macPJ, b.energy.macPJ);
    if (a.energy.levelPJ.size() != b.energy.levelPJ.size())
        return fail("energy.levelPJ size differs");
    for (size_t i = 0; i < a.energy.levelPJ.size(); ++i) {
        if (!bitsEq(a.energy.levelPJ[i], b.energy.levelPJ[i]))
            return num("energy.levelPJ", a.energy.levelPJ[i],
                       b.energy.levelPJ[i]);
    }
    return "";
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

/**
 * Mutate one knob of the tree in place: a scope-kind flip, a loop-kind
 * flip, or a loop-extent change. Mirrors the single-knob moves of the
 * GA / MCTS. Some mutations produce invalid mappings — those must
 * round-trip bit-identically too (same problems, same early return).
 */
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
            // Scope-kind flip: keeps every descendant's context
            // signature, so their cached partials should stay live.
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

// -------------------------------------------------------------------
// Structural hash properties
// -------------------------------------------------------------------

TEST(SubtreeHash, EqualTreesImpliesEqualHash)
{
    for (uint64_t index = 0; index < 20; ++index) {
        const FuzzCase fc = makeFuzzCase(0xA5u, index);
        const AnalysisTree copy = fc.tree->clone();
        ASSERT_TRUE(equalTrees(*fc.tree, copy));
        EXPECT_EQ(subtreeHash(fc.tree->root()),
                  subtreeHash(copy.root()));
    }
}

TEST(SubtreeHash, LoopExtentChangeChangesHash)
{
    const FuzzCase fc = makeFuzzCase(0xA5u, 3);
    std::vector<Node*> scopes;
    std::vector<Node*> tiles;
    collectNodes(fc.tree->root(), scopes, tiles);
    ASSERT_FALSE(tiles.empty());
    const uint64_t before = subtreeHash(fc.tree->root());
    tiles.front()->loops().front().extent += 1;
    EXPECT_NE(before, subtreeHash(fc.tree->root()));
}

TEST(SubtreeHash, ScopeKindChangeChangesHashButNotDescendantContext)
{
    // Find a fuzz case with a Scope that has a Tile descendant.
    for (uint64_t index = 0; index < 50; ++index) {
        const FuzzCase fc = makeFuzzCase(0xA5u, index);
        std::vector<Node*> scopes;
        std::vector<Node*> tiles;
        collectNodes(fc.tree->root(), scopes, tiles);
        Node* scope = nullptr;
        Node* descendant = nullptr;
        for (Node* s : scopes) {
            for (const auto& child : s->children()) {
                if (child->isTile()) {
                    scope = s;
                    descendant = child.get();
                    break;
                }
            }
            if (scope)
                break;
        }
        if (!scope)
            continue;

        const uint64_t root_before = subtreeHash(fc.tree->root());
        const uint64_t desc_hash = subtreeHash(descendant);
        const uint64_t desc_ctx = contextSignature(descendant);
        scope->setScopeKind(scope->scopeKind() == ScopeKind::Seq
                                ? ScopeKind::Shar
                                : ScopeKind::Seq);
        // The root's subtree (which contains the scope) re-hashes...
        EXPECT_NE(root_before, subtreeHash(fc.tree->root()));
        // ...but the descendant's own key is untouched: binding
        // mutations above a subtree keep its cached partials valid.
        EXPECT_EQ(desc_hash, subtreeHash(descendant));
        EXPECT_EQ(desc_ctx, contextSignature(descendant));
        return;
    }
    FAIL() << "no fuzz case with a Scope-with-Tile-child found";
}

TEST(SubtreeHash, AncestorLoopChangeChangesDescendantContext)
{
    for (uint64_t index = 0; index < 50; ++index) {
        const FuzzCase fc = makeFuzzCase(0xA5u, index);
        std::vector<Node*> scopes;
        std::vector<Node*> tiles;
        collectNodes(fc.tree->root(), scopes, tiles);
        // Need a Tile with loops that has a Tile descendant.
        for (Node* tile : tiles) {
            Node* inner = nullptr;
            for (Node* other : tiles) {
                if (other != tile && isAncestorOf(tile, other)) {
                    inner = other;
                    break;
                }
            }
            if (!inner)
                continue;
            const uint64_t inner_hash = subtreeHash(inner);
            const uint64_t inner_ctx = contextSignature(inner);
            tile->loops().front().extent += 1;
            EXPECT_EQ(inner_hash, subtreeHash(inner));
            EXPECT_NE(inner_ctx, contextSignature(inner));
            return;
        }
    }
    FAIL() << "no fuzz case with nested Tile nodes found";
}

TEST(SubtreeHash, OneWalkKeysEqualSingleNodeFunctions)
{
    // tileKeys() folds hashes bottom-up and contexts top-down in one
    // walk; every key must equal the single-node functions', on every
    // fuzz family and along single-knob mutation streams.
    Rng rng(0x7EE5u);
    std::set<int> families;
    int keys_checked = 0;
    for (uint64_t index = 0; index < 28; ++index) {
        FuzzCase fc = makeFuzzCase(0xB1Du, index);
        families.insert(fc.kind);
        for (int m = 0; m < 4; ++m) {
            if (m > 0 && !mutateOneKnob(rng, *fc.tree))
                break;
            std::vector<const Node*> expected; // Tile nodes, preorder
            std::vector<const Node*> stack{fc.tree->root()};
            while (!stack.empty()) {
                const Node* node = stack.back();
                stack.pop_back();
                if (node->isTile())
                    expected.push_back(node);
                for (size_t c = node->numChildren(); c-- > 0;)
                    stack.push_back(node->child(c));
            }
            const std::vector<TileKey> keys = tileKeys(fc.tree->root());
            ASSERT_EQ(keys.size(), expected.size()) << fc.summary;
            for (size_t i = 0; i < keys.size(); ++i) {
                EXPECT_EQ(keys[i].node, expected[i]) << fc.summary;
                EXPECT_EQ(keys[i].hash, subtreeHash(keys[i].node))
                    << fc.summary;
                EXPECT_EQ(keys[i].context,
                          contextSignature(keys[i].node))
                    << fc.summary;
                ++keys_checked;
            }
            // A subtree's walk keeps the full tree's contexts.
            for (const TileKey& key : keys) {
                const std::vector<TileKey> sub = tileKeys(key.node);
                ASSERT_FALSE(sub.empty());
                EXPECT_EQ(sub.front().hash, key.hash);
                EXPECT_EQ(sub.front().context, key.context);
            }
        }
    }
    EXPECT_EQ(families.size(), 7u);
    EXPECT_GT(keys_checked, 100);
    EXPECT_TRUE(tileKeys(nullptr).empty());
}

// -------------------------------------------------------------------
// SubtreeCache unit tests
// -------------------------------------------------------------------

TEST(SubtreeCache, LookupInsertHitMissCounters)
{
    SubtreeCache cache(4, 0);
    const SubtreeKey key{0x1234u, 0x5678u};
    EXPECT_FALSE(cache.lookup(key).has_value());
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);

    SubtreePartial partial;
    partial.footprintBytes = 42;
    partial.hasLatency = true;
    partial.cycles = 3.5;
    partial.computeCycles = 2.5;
    cache.insert(key, partial);
    EXPECT_EQ(cache.size(), 1u);

    const auto found = cache.lookup(key);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->footprintBytes, 42);
    EXPECT_TRUE(found->hasLatency);
    EXPECT_EQ(found->cycles, 3.5);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);

    // Same hash, different context: a distinct entry.
    const SubtreeKey other{0x1234u, 0x9999u};
    EXPECT_FALSE(cache.lookup(other).has_value());
    cache.insert(other, partial);
    EXPECT_EQ(cache.size(), 2u);

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
}

TEST(SubtreeCache, PerShardCapEvictsFifo)
{
    SubtreeCache cache(1, 2); // single shard, two entries max
    const SubtreeKey k1{1, 0};
    const SubtreeKey k2{2, 0};
    const SubtreeKey k3{3, 0};
    SubtreePartial partial;
    cache.insert(k1, partial);
    cache.insert(k2, partial);
    EXPECT_EQ(cache.evictions(), 0u);
    cache.insert(k3, partial);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);
    // Oldest entry went first.
    EXPECT_FALSE(cache.lookup(k1).has_value());
    EXPECT_TRUE(cache.lookup(k2).has_value());
    EXPECT_TRUE(cache.lookup(k3).has_value());
}

TEST(SubtreeCache, ReinsertDoesNotEvict)
{
    SubtreeCache cache(1, 2);
    const SubtreeKey k1{1, 0};
    const SubtreeKey k2{2, 0};
    SubtreePartial partial;
    cache.insert(k1, partial);
    cache.insert(k2, partial);
    // Upgrading an existing entry (the hasLatency last-writer-wins
    // path) must not count as growth.
    partial.hasLatency = true;
    cache.insert(k1, partial);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 0u);
    ASSERT_TRUE(cache.lookup(k1).has_value());
    EXPECT_TRUE(cache.lookup(k1)->hasLatency);
}

TEST(SubtreeCache, ClearZeroesEvictionsAndCreditsOnlyTheRegistry)
{
    Counter& registry_evictions =
        MetricsRegistry::global().counter("analysis.subtree_evictions");
    SubtreeCache cache(1, 2);
    SubtreePartial partial;
    for (uint64_t i = 1; i <= 3; ++i)
        cache.insert(SubtreeKey{i, 0}, partial);
    EXPECT_EQ(cache.evictions(), 1u);
    const uint64_t reg_before = registry_evictions.value();

    // Instance counters run since construction or the last clear(), so
    // clear() zeroes evictions too; the two cleared entries go to the
    // process-cumulative registry counter only.
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.evictions(), 0u);
    EXPECT_EQ(registry_evictions.value(), reg_before + 2);
}

// -------------------------------------------------------------------
// EvalCache: bounded eviction + concurrent clear (satellite fixes)
// -------------------------------------------------------------------

std::vector<int64_t>
choiceVec(int64_t tag)
{
    return {tag, tag + 1, tag + 2};
}

TEST(EvalCacheBounded, CapEvictsFifoAndCreditsCounters)
{
    Counter& registry_evictions =
        MetricsRegistry::global().counter("evalcache.evictions");
    const uint64_t reg_before = registry_evictions.value();

    EvalCache cache(1, 2); // single shard, two entries max
    CachedEval v;
    v.valid = true;
    v.cycles = 1.0;
    cache.insert(choiceVec(1), v);
    cache.insert(choiceVec(2), v);
    EXPECT_EQ(cache.evictions(), 0u);
    cache.insert(choiceVec(3), v);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);
    // The existing evalcache.evictions counter gets the credit.
    EXPECT_EQ(registry_evictions.value(), reg_before + 1);

    EXPECT_FALSE(cache.lookup(choiceVec(1)).has_value());
    EXPECT_TRUE(cache.lookup(choiceVec(2)).has_value());
    EXPECT_TRUE(cache.lookup(choiceVec(3)).has_value());
}

TEST(EvalCacheBounded, ReinsertExistingKeyDoesNotEvict)
{
    EvalCache cache(1, 2);
    CachedEval v;
    cache.insert(choiceVec(1), v);
    cache.insert(choiceVec(2), v);
    v.valid = true;
    cache.insert(choiceVec(1), v); // overwrite, not growth
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 0u);
    ASSERT_TRUE(cache.lookup(choiceVec(1)).has_value());
    EXPECT_TRUE(cache.lookup(choiceVec(1))->valid);
}

TEST(EvalCacheBounded, DefaultCapIsUnbounded)
{
    EvalCache cache(1); // cap defaults to 0 = unbounded
    CachedEval v;
    for (int64_t i = 0; i < 100; ++i)
        cache.insert(choiceVec(i), v);
    EXPECT_EQ(cache.size(), 100u);
    EXPECT_EQ(cache.evictions(), 0u);
}

TEST(EvalCacheBounded, ClearZeroesEvictionsAndCreditsOnlyTheRegistry)
{
    Counter& registry_evictions =
        MetricsRegistry::global().counter("evalcache.evictions");
    EvalCache cache(1, 2);
    CachedEval v;
    for (int64_t i = 1; i <= 3; ++i)
        cache.insert(choiceVec(i), v);
    EXPECT_EQ(cache.evictions(), 1u);
    const uint64_t reg_before = registry_evictions.value();

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.evictions(), 0u);
    EXPECT_EQ(registry_evictions.value(), reg_before + 2);
}

TEST(EvalCacheConcurrency, CountersStayConsistentUnderConcurrentClear)
{
    EvalCache cache(4, 8);
    constexpr int kWorkers = 4;
    constexpr int kOpsPerWorker = 2000;
    std::atomic<bool> stop{false};

    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
        workers.emplace_back([&cache, w]() {
            for (int i = 0; i < kOpsPerWorker; ++i) {
                const std::vector<int64_t> key =
                    choiceVec(int64_t((w * kOpsPerWorker + i) % 64));
                const std::optional<CachedEval> found =
                    cache.lookup(key);
                if (found) {
                    // Values are never torn: an entry for key(tag) was
                    // inserted with cycles == tag.
                    EXPECT_EQ(found->cycles, double(key[0]));
                } else {
                    CachedEval v;
                    v.valid = true;
                    v.cycles = double(key[0]);
                    cache.insert(key, v);
                }
            }
        });
    }
    std::thread clearer([&cache, &stop]() {
        while (!stop.load()) {
            cache.clear();
            std::this_thread::yield();
        }
    });
    for (std::thread& t : workers)
        t.join();
    stop.store(true);
    clearer.join();

    // clear() only ever resets the instance counters, so they can
    // never exceed the lookups actually issued.
    EXPECT_LE(cache.hits() + cache.misses(),
              uint64_t(kWorkers) * kOpsPerWorker);

    // Deterministic tail: from a clean slate the counters partition
    // lookups exactly.
    cache.clear();
    for (int64_t i = 0; i < 10; ++i)
        EXPECT_FALSE(cache.lookup(choiceVec(1000 + i)).has_value());
    CachedEval v;
    for (int64_t i = 0; i < 10; ++i)
        cache.insert(choiceVec(1000 + i), v);
    for (int64_t i = 0; i < 10; ++i)
        EXPECT_TRUE(cache.lookup(choiceVec(1000 + i)).has_value());
    EXPECT_EQ(cache.misses(), 10u);
    EXPECT_EQ(cache.hits(), 10u);
}

TEST(SubtreeCacheConcurrency, CountersStayConsistentUnderConcurrentClear)
{
    SubtreeCache cache(4, 8);
    constexpr int kWorkers = 4;
    constexpr int kOpsPerWorker = 2000;
    std::atomic<bool> stop{false};
    auto keyOf = [](uint64_t tag) {
        return SubtreeKey{tag, tag * 7};
    };

    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
        workers.emplace_back([&cache, &keyOf, w]() {
            for (int i = 0; i < kOpsPerWorker; ++i) {
                const uint64_t tag = uint64_t((w * kOpsPerWorker + i) % 64);
                const std::optional<SubtreePartial> found =
                    cache.lookup(keyOf(tag));
                if (found) {
                    // Values are never torn: the entry for tag was
                    // inserted with footprintBytes == tag and a
                    // tag-long fill vector.
                    EXPECT_EQ(found->footprintBytes, int64_t(tag));
                    EXPECT_EQ(found->dm.childFill.size(), size_t(tag));
                } else {
                    SubtreePartial partial;
                    partial.footprintBytes = int64_t(tag);
                    partial.dm.childFill.assign(tag, double(tag));
                    cache.insert(keyOf(tag), partial);
                }
            }
        });
    }
    std::thread clearer([&cache, &stop]() {
        while (!stop.load()) {
            cache.clear();
            std::this_thread::yield();
        }
    });
    for (std::thread& t : workers)
        t.join();
    stop.store(true);
    clearer.join();

    EXPECT_LE(cache.hits() + cache.misses(),
              uint64_t(kWorkers) * kOpsPerWorker);
    EXPECT_LE(cache.evictions(), uint64_t(kWorkers) * kOpsPerWorker);

    // Deterministic tail: from a clean slate the counters partition
    // lookups exactly, and the byte count matches the entries held.
    cache.clear();
    EXPECT_EQ(cache.evictions(), 0u);
    EXPECT_EQ(cache.bytes(), 0u);
    for (uint64_t i = 0; i < 10; ++i)
        EXPECT_FALSE(cache.lookup(keyOf(1000 + i)).has_value());
    SubtreePartial partial;
    uint64_t expected_bytes = 0;
    for (uint64_t i = 0; i < 10; ++i) {
        cache.insert(keyOf(1000 + i), partial);
        expected_bytes += SubtreeCache::entryBytes(keyOf(1000 + i), partial);
    }
    for (uint64_t i = 0; i < 10; ++i)
        EXPECT_TRUE(cache.lookup(keyOf(1000 + i)).has_value());
    EXPECT_EQ(cache.misses(), 10u);
    EXPECT_EQ(cache.hits(), 10u);
    EXPECT_EQ(cache.bytes(), expected_bytes);
}

// -------------------------------------------------------------------
// Evaluator satellite fixes
// -------------------------------------------------------------------

TEST(EnforcementProblems, ReportsOnlyTheGatingClass)
{
    ResourceResult resources;
    resources.fitsMemory = false;
    resources.fitsCompute = false;
    resources.memoryViolations = {"mem overflow"};
    resources.computeViolations = {"pe overrun", "fanout overrun"};
    resources.violations = {"pe overrun", "mem overflow",
                            "fanout overrun"};

    EvalOptions both;
    EXPECT_EQ(enforcementProblems(both, resources),
              (std::vector<std::string>{"mem overflow", "pe overrun",
                                        "fanout overrun"}));

    EvalOptions memory_only;
    memory_only.enforceCompute = false;
    EXPECT_EQ(enforcementProblems(memory_only, resources),
              std::vector<std::string>{"mem overflow"});

    EvalOptions compute_only;
    compute_only.enforceMemory = false;
    EXPECT_EQ(enforcementProblems(compute_only, resources),
              (std::vector<std::string>{"pe overrun", "fanout overrun"}));
}

TEST(EnforcementProblems, EvaluatorReportsOnlyMemoryViolations)
{
    // Starve every on-chip buffer down to one byte: any structurally
    // valid mapping now overflows memory while its compute demand is
    // unchanged, so the rejection must carry the memory violations and
    // nothing else.
    ArchSpec starved = makeValidationArch();
    for (size_t i = 0; i + 1 < starved.levels().size(); ++i)
        starved.levels()[i].capacityBytes = 1;

    bool found = false;
    for (uint64_t index = 0; index < 20; ++index) {
        const FuzzCase fc = makeFuzzCase(0xBADCAFEu, index);
        const Evaluator eval(*fc.workload, starved);
        const EvalResult r = eval.evaluate(*fc.tree);
        if (r.valid)
            continue; // tiny tree that really fits in one byte? no.
        ASSERT_FALSE(r.resources.fitsMemory) << fc.summary;
        if (!r.resources.fitsCompute)
            continue; // rare fanout overrun: not the single-class case
        EXPECT_EQ(r.problems, r.resources.memoryViolations)
            << fc.summary;
        EXPECT_EQ(r.problems,
                  enforcementProblems(eval.options(), r.resources));
        found = true;
    }
    EXPECT_TRUE(found) << "no fuzz case overflowed the starved arch";

    // With memory enforcement off, the same mappings sail through: the
    // unenforced class must not leak into problems.
    EvalOptions no_memory;
    no_memory.enforceMemory = false;
    for (uint64_t index = 0; index < 5; ++index) {
        const FuzzCase fc = makeFuzzCase(0xBADCAFEu, index);
        const Evaluator eval(*fc.workload, starved, no_memory);
        const EvalResult r = eval.evaluate(*fc.tree);
        if (!r.valid) {
            EXPECT_EQ(r.problems, r.resources.computeViolations)
                << fc.summary;
        }
    }
}

TEST(EvalResultStr, NonFiniteMetricsRenderPoisonedMarker)
{
    EvalResult r;
    r.valid = true;
    r.cycles = std::numeric_limits<double>::quiet_NaN();
    r.energyPJ = 1.0;
    const std::string text = r.str(fuzzSpec());
    EXPECT_NE(text.find("POISONED (non-finite)"), std::string::npos)
        << text;

    EvalResult inf;
    inf.valid = true;
    inf.cycles = 100.0;
    inf.energyPJ = std::numeric_limits<double>::infinity();
    EXPECT_NE(inf.str(fuzzSpec()).find("POISONED (non-finite)"),
              std::string::npos);

    EvalResult ok;
    ok.valid = true;
    ok.cycles = 100.0;
    ok.energyPJ = 5.0;
    ok.utilization = 0.5;
    EXPECT_EQ(ok.str(fuzzSpec()).find("POISONED"), std::string::npos);
}

// -------------------------------------------------------------------
// The tentpole property: incremental == full, bit for bit
// -------------------------------------------------------------------

TEST(Incremental, BitIdenticalToFullAcrossAllFuzzFamilies)
{
    MetricsRegistry& metrics = MetricsRegistry::global();
    const uint64_t lookups_before =
        metrics.counter("analysis.subtree_lookups").value();
    const uint64_t hits_before =
        metrics.counter("analysis.subtree_hits").value();
    const uint64_t misses_before =
        metrics.counter("analysis.subtree_misses").value();
    const uint64_t inc_before =
        metrics.counter("analysis.incremental_evals").value();

    Rng rng(0xD157u);
    std::set<int> families_seen;
    int pairs = 0;
    uint64_t inc_calls = 0;

    for (uint64_t index = 0; index < 60; ++index) {
        FuzzCase fc = makeFuzzCase(0x5EEDu, index);
        families_seen.insert(fc.kind);

        const Evaluator full(*fc.workload, fuzzSpec());
        SubtreeCache cache;
        const IncrementalEvaluator inc(full, cache);

        // Warm pair: first incremental evaluation misses everything.
        {
            const EvalResult a = full.evaluate(*fc.tree);
            const EvalResult b = inc.evaluate(*fc.tree);
            ++inc_calls;
            ++pairs;
            ASSERT_EQ(bitDiff(a, b), "")
                << "case " << index << " warm (" << fc.summary << ")";
        }

        // Mutation pairs: single-knob changes against a warm cache.
        for (int m = 0; m < 9; ++m) {
            if (!mutateOneKnob(rng, *fc.tree))
                break;
            const EvalResult a = full.evaluate(*fc.tree);
            const EvalResult b = inc.evaluate(*fc.tree);
            ++inc_calls;
            ++pairs;
            ASSERT_EQ(bitDiff(a, b), "")
                << "case " << index << " mutation " << m << " ("
                << fc.summary << ")";
        }
    }

    // At least 500 mutate/evaluate pairs, all 7 families.
    EXPECT_GE(pairs, 500);
    EXPECT_EQ(families_seen.size(), 7u)
        << "fuzz stream did not cover every generator family";

    // Telemetry: one lookup per Tile node per incremental evaluation,
    // partitioned exactly into hits and misses; and the incremental
    // call counter advanced once per evaluate().
    const uint64_t lookups =
        metrics.counter("analysis.subtree_lookups").value() -
        lookups_before;
    const uint64_t hits =
        metrics.counter("analysis.subtree_hits").value() - hits_before;
    const uint64_t misses =
        metrics.counter("analysis.subtree_misses").value() -
        misses_before;
    EXPECT_EQ(hits + misses, lookups);
    EXPECT_GT(hits, 0u) << "mutations never reused a cached subtree";
    EXPECT_EQ(metrics.counter("analysis.incremental_evals").value() -
                  inc_before,
              inc_calls);
}

/**
 * Incremental evaluation through a SubtreeCache capped at one entry
 * per shard, which evicts on nearly every insert (the name is from the
 * deleted memory budget, whose soft pressure shrank the caches; a
 * one-entry cap is that pressure at its limit). Eviction may change hit
 * rates, never values: on every fuzz family, warm and after each
 * single-knob mutation, the capped result equals full evaluation bit
 * for bit.
 */
TEST(MemBudget, SoftPressureKeepsEvaluationsBitIdentical)
{
    Rng rng(0xC0FFEEu);
    std::set<int> families_seen;
    uint64_t evictions = 0;
    for (uint64_t index = 0; index < 21; ++index) {
        FuzzCase fc = makeFuzzCase(0xB1D6E7u, index);
        families_seen.insert(fc.kind);
        const Evaluator full(*fc.workload, fuzzSpec());
        SubtreeCache capped_cache(1, 1);
        const IncrementalEvaluator capped(full, capped_cache);
        for (int m = 0; m < 4; ++m) {
            ASSERT_EQ(bitDiff(full.evaluate(*fc.tree),
                              capped.evaluate(*fc.tree)),
                      "")
                << "case " << index << " step " << m << " ("
                << fc.summary << ")";
            if (!mutateOneKnob(rng, *fc.tree))
                break;
        }
        evictions += capped_cache.evictions();
    }
    EXPECT_EQ(families_seen.size(), 7u)
        << "fuzz stream did not cover every generator family";
    EXPECT_GT(evictions, 0u);
}

TEST(Incremental, BitIdenticalWithEnforcementDisabled)
{
    // Table 7's "No Memory Limit" scenario: over-capacity mappings run
    // the full latency/energy pipeline instead of returning early, so
    // the cached-latency paths see trees the enforce-on loop rejects.
    Rng rng(0x0FFu);
    EvalOptions options;
    options.enforceMemory = false;
    options.enforceCompute = false;
    for (uint64_t index = 0; index < 12; ++index) {
        FuzzCase fc = makeFuzzCase(0xF00D5u, index);
        const Evaluator full(*fc.workload, fuzzSpec(), options);
        SubtreeCache cache;
        const IncrementalEvaluator inc(full, cache);
        ASSERT_EQ(bitDiff(full.evaluate(*fc.tree), inc.evaluate(*fc.tree)),
                  "")
            << "case " << index << " warm (" << fc.summary << ")";
        for (int m = 0; m < 5; ++m) {
            if (!mutateOneKnob(rng, *fc.tree))
                break;
            ASSERT_EQ(
                bitDiff(full.evaluate(*fc.tree), inc.evaluate(*fc.tree)),
                "")
                << "case " << index << " mutation " << m << " ("
                << fc.summary << ")";
        }
    }
}

TEST(Incremental, ScopeKindMutationReusesDescendantSubtrees)
{
    // The dirty-spine contract: after a binding flip, only the changed
    // node's ancestor spine re-analyzes; everything below it hits.
    for (uint64_t index = 0; index < 50; ++index) {
        FuzzCase fc = makeFuzzCase(0xA11Du, index);
        std::vector<Node*> scopes;
        std::vector<Node*> tiles;
        collectNodes(fc.tree->root(), scopes, tiles);
        Node* scope = nullptr;
        for (Node* s : scopes) {
            for (const auto& child : s->children())
                if (child->isTile())
                    scope = s;
        }
        if (!scope)
            continue;

        const Evaluator full(*fc.workload, fuzzSpec());
        SubtreeCache cache;
        const IncrementalEvaluator inc(full, cache);
        const EvalResult warm = inc.evaluate(*fc.tree);
        if (!warm.valid && warm.resources.violations.empty())
            continue; // validate-rejected: no lookups happened
        const uint64_t misses_warm = cache.misses();

        scope->setScopeKind(scope->scopeKind() == ScopeKind::Seq
                                ? ScopeKind::Shar
                                : ScopeKind::Seq);
        inc.evaluate(*fc.tree);
        // Descendant Tiles of the flipped scope keep their keys, so at
        // least one lookup of the re-evaluation must have hit.
        EXPECT_GT(cache.hits(), 0u) << fc.summary;
        // And the re-evaluation did not re-analyze the whole tree.
        EXPECT_LT(cache.misses() - misses_warm, misses_warm)
            << fc.summary;
        return;
    }
    GTEST_SKIP() << "no valid fuzz case with a Scope-with-Tile-child";
}

// -------------------------------------------------------------------
// Differential oracle over incrementally-evaluated trees
// -------------------------------------------------------------------

TEST(Incremental, OracleContractHoldsOnIncrementallyEvaluatedTrees)
{
    for (uint64_t index = 0; index < 40; ++index) {
        const FuzzCase fc = makeFuzzCase(0xD1FFu, index);
        const Evaluator full(*fc.workload, fuzzSpec());
        SubtreeCache cache;
        const IncrementalEvaluator inc(full, cache);

        // Evaluate twice: the second run is served from cache, so the
        // oracle below is vouching for cache-served numbers, not just
        // freshly computed ones.
        inc.evaluate(*fc.tree);
        const EvalResult cached_run = inc.evaluate(*fc.tree);
        ASSERT_EQ(bitDiff(full.evaluate(*fc.tree), cached_run), "")
            << "case " << index << " (" << fc.summary << ")";

        const DiffReport report =
            diffModelVsOracle(*fc.workload, fuzzSpec(), *fc.tree);
        ASSERT_TRUE(report.ok())
            << "case " << index << " (" << fc.summary << "):\n"
            << report.detail;
    }
}

} // namespace
} // namespace tileflow
