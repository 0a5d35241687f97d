#include "mapper/mcts.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/logging.hpp"
#include "common/telemetry.hpp"
#include "mapper/verdictlog.hpp"

namespace tileflow {

namespace {

int64_t
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** One node of the search tree: a prefix of factor decisions. An
 *  expansion creates all of a node's children at once, in one
 *  allocation; the vector never grows after that, so pointers to
 *  the children stay valid. */
struct SearchNode
{
    int visits = 0;
    double totalReward = 0.0;
    std::vector<SearchNode> children;

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

/** One selected-but-not-yet-scored rollout. A tuner reuses these
 *  across batches, so the vectors keep their capacity. */
struct PendingSample
{
    std::vector<int64_t> choices;
    std::vector<SearchNode*> path;
    CachedEval eval;

    /** Bound-only cache entry found at resolve time (BoundPrune). */
    std::optional<CachedEval> memo;
};

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/** Approximate heap bytes of one SearchNode: the node itself in
 *  its parent's child array, with a share of allocator overhead. */
constexpr uint64_t kNodeBytes = sizeof(SearchNode) + 8;

} // namespace

MctsResult
MctsTuner::tune(const std::vector<int64_t>& base, int samples)
{
    MctsResult result;

    const auto run_start = std::chrono::steady_clock::now();

    static Counter& batch_counter =
        MetricsRegistry::global().counter("mcts.batches");
    static Counter& sample_counter =
        MetricsRegistry::global().counter("mcts.samples");
    static Histogram& batch_hist =
        MetricsRegistry::global().histogram("mcts.batch_ns");

    const std::vector<size_t> factor_idx = space_->factorKnobs();
    const uint64_t hits_before = cache_ ? cache_->hits() : 0;
    const uint64_t misses_before = cache_ ? cache_->misses() : 0;

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
                                   subtrees_, log_);
            if (log_)
                log_->flush();
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
    // gauge. The tree is search *state*, not a cache: pruning it would
    // change the trajectory, so it has no cap.
    std::atomic<uint64_t> tree_bytes{kNodeBytes};
    static Gauge& tree_gauge =
        MetricsRegistry::global().gauge("mapper.mcts_tree_bytes");
    tree_gauge.set(double(kNodeBytes));

    const StopControl stop = stop_ ? *stop_ : StopControl();

    ProgressMeter progress(progressIntervalMs_);

    // Batch buffers, reused by every batch.
    std::vector<PendingSample> pending;
    std::vector<int> copy_from;
    std::vector<size_t> to_evaluate;

    while (done < samples) {
        // Batches are the atomic unit: stop checks only happen here.
        // The deadline waits while a verdict log still replays.
        {
            const int64_t charged =
                globalEvals_
                    ? globalEvals_->load(std::memory_order_relaxed)
                    : result.evaluations;
            if (const char* why = stop.stopReason(
                    charged, log_ != nullptr && log_->replaying())) {
                result.timedOut = true;
                result.stopReason = why;
                break;
            }
        }

        const TraceSpan batch_span("mcts.batch", "mapper");
        const ScopedLatency batch_timer(batch_hist);
        batch_counter.add();

        const int batch =
            std::min(batch_, samples - done);
        sample_counter.add(uint64_t(batch));
        pending.resize(size_t(batch)); // smaller only for the last batch

        // Selection + expansion, serially, under virtual loss: each
        // selected path's visit counts are bumped immediately so the
        // next selection in this batch is steered elsewhere. Rollout
        // randomness also stays serial, so the trajectory is
        // independent of how the batch is later scheduled.
        for (int k = 0; k < batch; ++k) {
            PendingSample& sample = pending[size_t(k)];
            sample.choices = base;
            sample.path.clear();
            sample.eval = CachedEval();
            sample.memo.reset();
            SearchNode* node = &root;
            node->visits += 1; // virtual loss
            sample.path.push_back(node);
            size_t depth = 0;
            for (; depth < factor_idx.size(); ++depth) {
                const Knob& knob = space_->knobs()[factor_idx[depth]];
                if (node->children.empty()) {
                    node->children.resize(knob.choices.size());
                    tree_bytes.fetch_add(knob.choices.size() *
                                             kNodeBytes,
                                         std::memory_order_relaxed);
                }
                size_t pick = 0;
                double best_ucb =
                    -std::numeric_limits<double>::infinity();
                for (size_t i = 0; i < node->children.size(); ++i) {
                    const double u = node->children[i].ucb(
                        node->visits, exploration_);
                    if (u > best_ucb) {
                        best_ucb = u;
                        pick = i;
                    }
                }
                sample.choices[factor_idx[depth]] = knob.choices[pick];
                node = &node->children[pick];
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
        }

        // Resolve the batch against the cache, deduplicating repeats
        // within the batch so each distinct mapping is evaluated at
        // most once; only the leftovers reach the guard, carrying any
        // bound-only entry the lookup found.
        copy_from.assign(pending.size(), -1);
        to_evaluate.clear();
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
                                          sample.choices, armed, subtrees_,
                                          log_);
        };
        if (pool_ && to_evaluate.size() > 1) {
            pool_->parallelFor(to_evaluate.size(), evaluate_one);
        } else {
            for (size_t i = 0; i < to_evaluate.size(); ++i)
                evaluate_one(i);
        }
        if (log_)
            log_->flush();
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
        for (const PendingSample& sample : pending) {
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
                   " (", uint64_t(double(done) / secs),
                   " samples/s) cache-hit=",
                   h + m > 0 ? int(100.0 * double(h) / double(h + m)) : 0,
                   "% deadline=",
                   left < 0 ? std::string("unlimited")
                            : concat(left, "ms"));
        }
    }
    tree_gauge.set(0.0); // the tree dies with this frame
    if (result.found)
        result.bestCycles = best;
    if (cache_) {
        result.cacheHits = cache_->hits() - hits_before;
        result.cacheMisses = cache_->misses() - misses_before;
    }
    result.elapsedMs = msSince(run_start);
    return result;
}

} // namespace tileflow
