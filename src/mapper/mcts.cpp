#include "mapper/mcts.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>

#include "common/logging.hpp"
#include "common/membudget.hpp"
#include "common/telemetry.hpp"
#include "mapper/checkpoint.hpp"

namespace tileflow {

namespace {

int64_t
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** One node of the search tree: a prefix of factor decisions. */
struct SearchNode
{
    int visits = 0;
    double totalReward = 0.0;
    std::vector<std::unique_ptr<SearchNode>> children;

    double
    ucb(int parent_visits, double exploration) const
    {
        if (visits == 0)
            return std::numeric_limits<double>::infinity();
        const double mean = totalReward / double(visits);
        return mean + exploration * std::sqrt(std::log(double(
                                                  parent_visits + 1)) /
                                              double(visits));
    }
};

/** One selected-but-not-yet-scored rollout. */
struct PendingSample
{
    std::vector<int64_t> choices;
    std::vector<SearchNode*> path;
    CachedEval eval;

    /** Bound-only cache entry found at resolve time (BoundPrune). */
    std::optional<CachedEval> memo;
};

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

void
writeNode(CkptWriter& w, const SearchNode& node)
{
    w.i64(node.visits);
    w.d(node.totalReward);
    w.u64(node.children.size());
    for (const auto& child : node.children)
        writeNode(w, *child);
}

/** Approximate heap bytes of one SearchNode: the node itself, its
 *  unique_ptr slot in the parent, and allocator overhead. */
constexpr uint64_t kNodeBytes = sizeof(SearchNode) + 32;

uint64_t
countNodes(const SearchNode& node)
{
    uint64_t n = 1;
    for (const auto& child : node.children)
        n += countNodes(*child);
    return n;
}

bool
readNode(CkptReader& r, SearchNode& node)
{
    node.visits = int(r.i64());
    node.totalReward = r.d();
    const uint64_t n = r.u64();
    if (!r.ok() || n > 4096) // menus are small; bound malformed input
        return false;
    node.children.clear();
    node.children.reserve(size_t(n));
    for (uint64_t i = 0; i < n; ++i) {
        node.children.push_back(std::make_unique<SearchNode>());
        if (!readNode(r, *node.children.back()))
            return false;
    }
    return true;
}

} // namespace

MctsResult
MctsTuner::tune(const std::vector<int64_t>& base, int samples)
{
    MctsResult result;

    const auto run_start = std::chrono::steady_clock::now();
    int64_t restored_elapsed_ms = 0;

    MetricsRegistry& metrics = MetricsRegistry::global();
    static Counter& batch_counter =
        MetricsRegistry::global().counter("mcts.batches");
    static Counter& sample_counter =
        MetricsRegistry::global().counter("mcts.samples");
    static Histogram& batch_hist =
        MetricsRegistry::global().histogram("mcts.batch_ns");

    const std::vector<size_t> factor_idx = space_->factorKnobs();
    // Re-snapshotted after the restore block: a rejected checkpoint
    // clears the cache, which also zeroes its counters.
    uint64_t hits_before = cache_ ? cache_->hits() : 0;
    uint64_t misses_before = cache_ ? cache_->misses() : 0;
    // Pre-kill counter portion restored from a checkpoint.
    uint64_t restored_hits = 0;
    uint64_t restored_misses = 0;

    if (factor_idx.empty()) {
        // Nothing to tune: evaluate the base directly (once — not
        // `samples` times, which the old accounting pretended). The
        // bound screen is deliberately not applied to this single
        // evaluation: pruning it would save one analysis but lose
        // the candidate's actual cycles (and with it `found`), so
        // the no-factor path behaves identically with pruning on or
        // off. For the same reason a bound-only entry is a miss here.
        CachedEval eval;
        const std::optional<CachedEval> cached =
            cache_ ? cache_->lookup(base) : std::nullopt;
        if (cached && !cached->boundOnly) {
            eval = *cached;
        } else {
            eval = guardedEvaluate(*evaluator_, *space_, base, nullptr,
                                   subtrees_);
            result.evaluations += 1;
            if (globalEvals_)
                globalEvals_->fetch_add(1, std::memory_order_relaxed);
            if (cache_)
                cache_->insert(base, eval);
        }
        if (eval.failed)
            result.failureHistogram[eval.failReason] += 1;
        if (eval.valid) {
            result.found = true;
            result.bestChoices = base;
            result.bestCycles = eval.cycles;
            result.trace.push_back(eval.cycles);
        } else {
            result.trace.push_back(kNaN);
        }
        if (cache_) {
            result.cacheHits = cache_->hits() - hits_before;
            result.cacheMisses = cache_->misses() - misses_before;
        }
        result.elapsedMs = msSince(run_start);
        return result;
    }

    SearchNode root;
    double best = std::numeric_limits<double>::infinity();
    int done = 0;

    // Search-tree bytes, reported through the mapper.mcts_tree_bytes
    // gauge. The tree is search *state*, not a cache — pruning it would
    // change the trajectory — so it does not register with the
    // MemoryBudget: pressure relief comes from the caches and from
    // guardedEvaluate shedding evaluations at hard pressure.
    std::atomic<uint64_t> tree_bytes{kNodeBytes};
    static Gauge& tree_gauge =
        MetricsRegistry::global().gauge("mapper.mcts_tree_bytes");
    tree_gauge.set(double(kNodeBytes));

    uint64_t config_hash = kCkptHashInit;
    if (!ckptPath_.empty()) {
        config_hash = ckptHash(config_hash, ckptSalt_);
        config_hash = ckptHash(config_hash, uint64_t(batch_));
        config_hash = ckptHash(config_hash, uint64_t(samples));
        config_hash = ckptHashDouble(config_hash, exploration_);
        config_hash = ckptHash(config_hash, base.size());
        for (int64_t c : base)
            config_hash = ckptHash(config_hash, uint64_t(c));
        config_hash = ckptHashSpace(config_hash, *space_);

        if (std::optional<CkptReader> r =
                CkptReader::open(ckptPath_, "mcts", config_hash)) {
            MctsResult restored;
            SearchNode restored_root;
            r->tag("done");
            const int64_t restored_done = r->i64();
            r->tag("found");
            restored.found = r->u64() != 0;
            r->tag("best");
            const double restored_best = r->d();
            r->tag("bestchoices");
            const uint64_t nbest = r->u64();
            restored.bestChoices.resize(size_t(nbest));
            for (auto& c : restored.bestChoices)
                c = r->i64();
            r->tag("trace");
            const uint64_t ntrace = r->u64();
            restored.trace.resize(size_t(ntrace));
            for (auto& t : restored.trace)
                t = r->d();
            r->tag("evals");
            restored.evaluations = int(r->i64());
            // Written unconditionally (0 when pruning is off), so
            // checkpoints interoperate across the boundPrune setting
            // — which is deliberately NOT in the config hash.
            r->tag("bpruned");
            restored.boundPruned = r->u64();
            r->tag("elapsedms");
            const int64_t ckpt_elapsed_ms = r->i64();
            r->tag("cachedelta");
            restored_hits = r->u64();
            restored_misses = r->u64();
            bool tree_ok = ckptReadHistogram(*r, restored.failureHistogram);
            r->tag("rng");
            const std::string rng_state = r->str();
            r->tag("tree");
            tree_ok = tree_ok && readNode(*r, restored_root);
            if (cache_)
                tree_ok = tree_ok && ckptReadCache(*r, *cache_);
            if (tree_ok && r->ok()) {
                result = std::move(restored);
                result.resumed = true;
                root = std::move(restored_root);
                tree_bytes.store(countNodes(root) * kNodeBytes,
                                 std::memory_order_relaxed);
                best = restored_best;
                done = int(restored_done);
                restored_elapsed_ms = ckpt_elapsed_ms;
                std::istringstream is(rng_state);
                is >> rng_->engine();
                if (globalEvals_) {
                    globalEvals_->fetch_add(
                        result.evaluations,
                        std::memory_order_relaxed);
                }
                // Credit the pre-kill portion into the process-wide
                // metrics (see genetic.cpp for the rationale).
                metrics.counter("mapper.evaluations")
                    .add(uint64_t(result.evaluations));
                metrics.counter("mapper.failed_evaluations")
                    .add(histogramTotal(result.failureHistogram));
                // Credit the evaluator-side counter the resumed
                // portion would have bumped, so the analysis/mapper
                // reconciliation telemetry_check enforces still holds
                // after a kill/resume cycle.
                evaluationCounter(subtrees_).add(
                    uint64_t(result.evaluations));
                metrics.counter("evalcache.hits").add(restored_hits);
                metrics.counter("evalcache.misses").add(restored_misses);
                // Bound-prune credits keep the candidates identity
                // (candidates == bound_pruned + evaluations) intact
                // across kill/resume; the restored prunes' tiers are
                // not checkpointed, so they form a bucket of their own.
                metrics.counter("mapper.bound_pruned")
                    .add(result.boundPruned);
                metrics.counter("mapper.bound_pruned_restored")
                    .add(result.boundPruned);
                metrics.counter("mapper.candidates")
                    .add(uint64_t(result.evaluations) +
                         result.boundPruned);
            } else {
                warn("mcts checkpoint '", ckptPath_,
                     "': truncated state; starting fresh");
                restored_hits = 0;
                restored_misses = 0;
                if (cache_)
                    cache_->clear();
            }
        }
    }

    // Snapshot after the restore (and its possible counter-resetting
    // clear); arm the stop predicate with only the remaining time
    // budget — the pre-kill elapsed wall clock is already spent.
    hits_before = cache_ ? cache_->hits() : 0;
    misses_before = cache_ ? cache_->misses() : 0;
    StopControl stop = stop_ ? *stop_ : StopControl();
    if (restored_elapsed_ms > 0)
        stop = stop.withElapsedCredit(restored_elapsed_ms);

    auto save_checkpoint = [&]() {
        if (ckptPath_.empty())
            return;
        CkptWriter w("mcts", config_hash);
        w.tag("done");
        w.i64(done);
        w.tag("found");
        w.u64(result.found ? 1 : 0);
        w.tag("best");
        w.d(best);
        w.tag("bestchoices");
        w.u64(result.bestChoices.size());
        for (int64_t c : result.bestChoices)
            w.i64(c);
        w.tag("trace");
        w.u64(result.trace.size());
        for (double t : result.trace)
            w.d(t);
        w.tag("evals");
        w.i64(result.evaluations);
        w.tag("bpruned");
        w.u64(result.boundPruned);
        w.tag("elapsedms");
        w.i64(restored_elapsed_ms + msSince(run_start));
        w.tag("cachedelta");
        w.u64(restored_hits + (cache_ ? cache_->hits() - hits_before
                                      : 0));
        w.u64(restored_misses + (cache_ ? cache_->misses() -
                                              misses_before
                                        : 0));
        ckptWriteHistogram(w, result.failureHistogram);
        w.tag("rng");
        std::ostringstream os;
        os << rng_->engine();
        w.str(os.str());
        w.tag("tree");
        writeNode(w, root);
        if (cache_)
            ckptWriteCache(w, *cache_);
        w.writeTo(ckptPath_);
    };

    ProgressMeter progress(progressIntervalMs_);
    const int done_at_start = done;

    int batches_since_ckpt = 0;
    while (done < samples) {
        // Batches are the atomic unit: stop checks and checkpoints
        // only happen here, so persisted state is always consistent.
        {
            const int64_t charged =
                globalEvals_
                    ? globalEvals_->load(std::memory_order_relaxed)
                    : result.evaluations;
            if (const char* why = stop.stopReason(charged)) {
                result.timedOut = true;
                result.stopReason = why;
                save_checkpoint();
                break;
            }
        }

        const TraceSpan batch_span("mcts.batch", "mapper");
        const ScopedLatency batch_timer(batch_hist);
        batch_counter.add();

        const int batch =
            std::min(batch_, samples - done);
        sample_counter.add(uint64_t(batch));
        std::vector<PendingSample> pending;
        pending.reserve(size_t(batch));

        // Selection + expansion, serially, under virtual loss: each
        // selected path's visit counts are bumped immediately so the
        // next selection in this batch is steered elsewhere. Rollout
        // randomness also stays serial, so the trajectory is
        // independent of how the batch is later scheduled.
        for (int k = 0; k < batch; ++k) {
            PendingSample sample;
            sample.choices = base;
            SearchNode* node = &root;
            node->visits += 1; // virtual loss
            sample.path.push_back(node);
            size_t depth = 0;
            for (; depth < factor_idx.size(); ++depth) {
                const Knob& knob = space_->knobs()[factor_idx[depth]];
                if (node->children.empty()) {
                    node->children.resize(knob.choices.size());
                    for (auto& child : node->children)
                        child = std::make_unique<SearchNode>();
                    tree_bytes.fetch_add(knob.choices.size() *
                                             kNodeBytes,
                                         std::memory_order_relaxed);
                }
                size_t pick = 0;
                double best_ucb =
                    -std::numeric_limits<double>::infinity();
                for (size_t i = 0; i < node->children.size(); ++i) {
                    const double u = node->children[i]->ucb(
                        node->visits, exploration_);
                    if (u > best_ucb) {
                        best_ucb = u;
                        pick = i;
                    }
                }
                sample.choices[factor_idx[depth]] = knob.choices[pick];
                node = node->children[pick].get();
                const bool fresh = node->visits == 0;
                node->visits += 1; // virtual loss
                sample.path.push_back(node);
                if (fresh) {
                    ++depth;
                    break;
                }
            }
            // Rollout: complete remaining knobs uniformly at random.
            for (; depth < factor_idx.size(); ++depth) {
                const Knob& knob = space_->knobs()[factor_idx[depth]];
                sample.choices[factor_idx[depth]] =
                    rng_->choice(knob.choices);
            }
            pending.push_back(std::move(sample));
        }

        // Resolve the batch against the cache, deduplicating repeats
        // within the batch so each distinct mapping is evaluated at
        // most once; only the leftovers reach the guard, carrying any
        // bound-only entry the lookup found.
        std::vector<int> copy_from(pending.size(), -1);
        std::vector<size_t> to_evaluate;
        for (size_t k = 0; k < pending.size(); ++k) {
            std::optional<CachedEval> cached =
                cache_ ? cache_->lookup(pending[k].choices)
                       : std::nullopt;
            if (cached && !cached->boundOnly) {
                pending[k].eval = *cached;
                continue;
            }
            for (size_t j : to_evaluate) {
                if (pending[j].choices == pending[k].choices) {
                    copy_from[k] = int(j);
                    break;
                }
            }
            if (copy_from[k] < 0) {
                pending[k].memo = std::move(cached);
                to_evaluate.push_back(k);
            }
        }

        // Branch-and-bound threshold for this batch, captured here on
        // the serial thread: `best` only changes in serial backprop,
        // so every worker sees the same threshold and the trajectory
        // is independent of the pool size.
        const double threshold = std::min(best, boundSeed_);

        // The guarded boundary: throwing / NaN-poisoned evaluations
        // become tagged infeasible verdicts instead of killing the
        // search (see mapper/guard.hpp).
        auto evaluate_one = [&](size_t i) {
            PendingSample& sample = pending[to_evaluate[i]];
            const BoundPrune prune{boundLb_, threshold,
                                   sample.memo ? &*sample.memo : nullptr};
            const BoundPrune* armed = boundLb_ ? &prune : nullptr;
            sample.eval = guardedEvaluate(*evaluator_, *space_,
                                          sample.choices, armed, subtrees_);
        };
        if (pool_ && to_evaluate.size() > 1) {
            pool_->parallelFor(to_evaluate.size(), evaluate_one);
        } else {
            for (size_t i = 0; i < to_evaluate.size(); ++i)
                evaluate_one(i);
        }
        // Pruned candidates are not evaluations: they must not charge
        // the evaluation budget, and their verdict depends on this
        // batch's threshold, so only the bound behind it enters the
        // cache (a later batch with a different best re-judges it).
        // A candidate pruned from its memo already has its entry; one
        // whose roofline memo led on to a capacity prune gets that
        // tier's.
        int evaluated = 0;
        for (size_t k : to_evaluate) {
            const CachedEval& eval = pending[k].eval;
            const std::optional<CachedEval>& memo = pending[k].memo;
            if (eval.pruned) {
                result.boundPruned += 1;
                if (cache_ && (!memo || (eval.capacityReject &&
                                         !memo->capacityReject)))
                    cache_->insert(pending[k].choices, boundOnlyEntry(eval));
                continue;
            }
            evaluated += 1;
            if (cache_)
                cache_->insert(pending[k].choices, pending[k].eval);
        }
        result.evaluations += evaluated;
        if (globalEvals_) {
            globalEvals_->fetch_add(int64_t(evaluated),
                                    std::memory_order_relaxed);
        }
        for (size_t k = 0; k < pending.size(); ++k) {
            if (copy_from[k] >= 0)
                pending[k].eval = pending[size_t(copy_from[k])].eval;
        }

        // Backpropagate serially in sample order; visits were already
        // added at selection time, so only rewards accumulate here.
        // Pruned samples take the same reward-0 path as infeasible
        // ones: the bound proved they cannot beat the current best.
        for (PendingSample& sample : pending) {
            double reward = 0.0;
            if (sample.eval.failed) {
                result.failureHistogram[sample.eval.failReason] += 1;
            } else if (sample.eval.valid && sample.eval.cycles > 0.0) {
                // Reward in (0, 1]: fraction of the best cycles seen.
                if (sample.eval.cycles < best) {
                    best = sample.eval.cycles;
                    result.bestChoices = sample.choices;
                    result.found = true;
                }
                reward = best / sample.eval.cycles;
            }
            result.trace.push_back(result.found ? best : kNaN);
            for (SearchNode* n : sample.path)
                n->totalReward += reward;
        }
        done += batch;
        tree_gauge.set(
            double(tree_bytes.load(std::memory_order_relaxed)));
        MemoryBudget::global().poll();

        if (progress.due()) {
            const double secs =
                std::max(1e-3, double(msSince(run_start)) / 1e3);
            const uint64_t h = cache_ ? cache_->hits() - hits_before : 0;
            const uint64_t m =
                cache_ ? cache_->misses() - misses_before : 0;
            const int64_t left = stop.deadline().remainingMs();
            inform("progress: sample ", done, "/", samples, " best=",
                   result.found ? concat(uint64_t(best), " cycles")
                                : std::string("none"),
                   " (", uint64_t(double(done - done_at_start) / secs),
                   " samples/s) cache-hit=",
                   h + m > 0 ? int(100.0 * double(h) / double(h + m)) : 0,
                   "% deadline=",
                   left < 0 ? std::string("unlimited")
                            : concat(left, "ms"));
        }

        if (!ckptPath_.empty() && ++batches_since_ckpt >= ckptEvery_) {
            save_checkpoint();
            batches_since_ckpt = 0;
        }
    }
    if (!result.timedOut)
        save_checkpoint();
    tree_gauge.set(0.0); // the tree dies with this frame
    if (result.found)
        result.bestCycles = best;
    if (cache_) {
        result.cacheHits =
            restored_hits + (cache_->hits() - hits_before);
        result.cacheMisses =
            restored_misses + (cache_->misses() - misses_before);
    }
    result.elapsedMs = restored_elapsed_ms + msSince(run_start);
    return result;
}

} // namespace tileflow
