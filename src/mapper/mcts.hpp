/**
 * @file
 * Monte-Carlo Tree Search over tiling tables (Sec. 6, Fig. 7c).
 *
 * Each MCTS level decides the factor of one un-tiled loop; a leaf is a
 * complete tiling table, evaluated with the analytical model (invalid
 * mappings — OOM or over-subscribed PEs — feed back a penalty). UCB1
 * guides the selection; rollouts complete the remaining knobs
 * uniformly at random.
 *
 * Rollouts run in batches: K leaves are selected serially under a
 * virtual-loss increment (each selection bumps visit counts along its
 * path immediately, steering later selections in the batch away from
 * the same leaf), the K mappings are evaluated concurrently on an
 * optional ThreadPool, and rewards are backpropagated serially in
 * sample order. Because selection, rollout randomness and backprop
 * never touch the pool, results are bit-identical for a fixed seed
 * regardless of thread count.
 *
 * An optional EvalCache memoizes complete mappings, so resampled
 * leaves skip the tree build and analysis; `MctsResult.evaluations`
 * counts only actual Evaluator::evaluate invocations. A pruned leaf
 * leaves its lower bound as a bound-only entry, which a resample
 * re-judges against the current threshold without a build.
 *
 * Fault tolerance: every rollout is evaluated through the guarded
 * boundary (mapper/guard.hpp) — a throwing or NaN-poisoned evaluation
 * marks that sample infeasible (reward 0) with its reason recorded in
 * `MctsResult.failureHistogram`, and is cached as a tagged infeasible
 * entry. An optional StopControl is polled at batch boundaries; when
 * it trips, tune() returns best-so-far with `timedOut` set. With
 * setVerdictLog, fresh evaluator verdicts are written to the log at
 * each batch end and logged ones stand in for evaluator calls
 * (mapper/verdictlog.hpp), so a re-run from the same seed resumes a
 * killed search bit-identically.
 */

#ifndef TILEFLOW_MAPPER_MCTS_HPP
#define TILEFLOW_MAPPER_MCTS_HPP

#include <atomic>
#include <limits>
#include <string>
#include <vector>

#include "analysis/lowerbound.hpp"

#include "analysis/evaluator.hpp"
#include "common/rng.hpp"
#include "common/stop.hpp"
#include "common/threadpool.hpp"
#include "mapper/encoding.hpp"
#include "mapper/evalcache.hpp"
#include "mapper/guard.hpp"

namespace tileflow {

/** One sampled mapping and its score. */
struct MctsSample
{
    std::vector<int64_t> choices;
    double cycles = 0.0;
    bool valid = false;
};

/** Outcome of one tuning run. */
struct MctsResult
{
    std::vector<int64_t> bestChoices;

    /** Meaningful only when `found`. */
    double bestCycles = 0.0;
    bool found = false;

    /** Best-so-far cycles after each sample (Fig. 9a traces). NaN for
     *  samples before the first valid mapping. */
    std::vector<double> trace;

    /** Actual Evaluator::evaluate invocations (cache hits excluded). */
    int evaluations = 0;

    /** Candidates discarded by the branch-and-bound lower bound —
     *  never fully evaluated, never counted in `evaluations`, cached
     *  only as a bound-only entry. */
    uint64_t boundPruned = 0;

    /** EvalCache hits/misses charged to this run. */
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;

    /** True when a StopControl ended the run early; `stopReason` says
     *  why ("deadline", "cancelled", "evaluation budget"). */
    bool timedOut = false;
    std::string stopReason;

    /** Failed (throwing / NaN-poisoned) samples, by reason. */
    FailureHistogram failureHistogram;

    /** Wall clock this tune() call took. */
    int64_t elapsedMs = 0;
};

/** MCTS tuner for the factor knobs of a mapping space. */
class MctsTuner
{
  public:
    MctsTuner(const Evaluator& evaluator, const MappingSpace& space,
              Rng& rng, double exploration = 1.2)
        : evaluator_(&evaluator),
          space_(&space),
          rng_(&rng),
          exploration_(exploration)
    {
    }

    /** Evaluate rollout batches on `pool` (nullptr: evaluate inline). */
    void setPool(ThreadPool* pool) { pool_ = pool; }

    /** Memoize evaluations in `cache` (nullptr: no memoization). */
    void setCache(EvalCache* cache) { cache_ = cache; }

    /**
     * Memoize per-subtree analysis partials of rollout evaluations in
     * `cache` (nullptr: none). Child expansion then reuses the parent
     * prefix's evaluated subtrees: successive samples share everything
     * but the newly decided factor's spine. Results are bit-identical
     * either way, so the search trajectory and results do not depend
     * on this setting — only throughput does.
     */
    void setSubtreeCache(SubtreeCache* cache) { subtrees_ = cache; }

    /**
     * Arm branch-and-bound screening (nullptr disables): every
     * rollout is lower-bounded before full evaluation, and a
     * candidate that provably cannot beat the best-so-far — or that
     * provably overflows a buffer — is recorded as pruned (reward 0,
     * counted in `MctsResult.boundPruned`) without ever paying for
     * the full analysis. The prune threshold is min(`seed_best`, this
     * run's own best-so-far), re-captured at each batch boundary on
     * the serial thread, so the trajectory stays bit-identical across
     * thread counts (the GA seeds `seed_best` with its
     * generation-boundary best). Unlike `setSubtreeCache`, pruning IS
     * part of the search trajectory: pruned samples backpropagate a 0
     * reward where a full evaluation would have scored them.
     * `bound` must mirror the evaluator's workload/spec/options and
     * outlive tune().
     */
    void
    setBoundPrune(const LowerBoundEvaluator* bound,
                  double seed_best =
                      std::numeric_limits<double>::infinity())
    {
        boundLb_ = bound;
        boundSeed_ = seed_best;
    }

    /** Leaves selected (under virtual loss) per evaluation batch. The
     *  batch size is part of the search trajectory: results depend on
     *  it, but for a fixed batch they do not depend on thread count. */
    void setBatch(int batch) { batch_ = batch < 1 ? 1 : batch; }

    /**
     * Poll `stop` at every batch boundary; when it trips, tune()
     * returns best-so-far with `timedOut` set instead of throwing.
     * `global_evals`, when given, is the evaluation count the budget
     * is charged against (shared across tuners by the GA); otherwise
     * the tuner's own count is used. Pointers must outlive tune().
     */
    void
    setStop(const StopControl* stop,
            std::atomic<int64_t>* global_evals = nullptr)
    {
        stop_ = stop;
        globalEvals_ = global_evals;
    }

    /**
     * Replay and record evaluator verdicts through `log` (nullptr:
     * none; see mapper/verdictlog.hpp): its records are written at
     * each batch end, and the deadline is held while it replays.
     */
    void setVerdictLog(VerdictLog* log) { log_ = log; }

    /** Emit an inform() progress line at most every `interval_ms`
     *  (polled at batch boundaries; <= 0 disables — the default, and
     *  what the GA leaves in place for its per-individual tuners). */
    void setProgress(int64_t interval_ms) { progressIntervalMs_ = interval_ms; }

    /**
     * Tune the factor knobs while holding the structural knobs at the
     * values in `base` (a full choice vector; its factor entries seed
     * nothing — only structure is read).
     *
     * @param samples number of complete mappings to sample
     */
    MctsResult tune(const std::vector<int64_t>& base, int samples);

  private:
    const Evaluator* evaluator_;
    const MappingSpace* space_;
    Rng* rng_;
    double exploration_;
    ThreadPool* pool_ = nullptr;
    EvalCache* cache_ = nullptr;
    SubtreeCache* subtrees_ = nullptr;
    const LowerBoundEvaluator* boundLb_ = nullptr;
    double boundSeed_ = std::numeric_limits<double>::infinity();
    int batch_ = 1;
    const StopControl* stop_ = nullptr;
    std::atomic<int64_t>* globalEvals_ = nullptr;
    VerdictLog* log_ = nullptr;
    int64_t progressIntervalMs_ = 0;
};

} // namespace tileflow

#endif // TILEFLOW_MAPPER_MCTS_HPP
