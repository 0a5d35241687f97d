/**
 * @file
 * Genetic algorithm over structural encodings (Sec. 6, Fig. 7a/7b).
 *
 * The GA evolves the ordering/binding genes (which ops fuse, which
 * primitive binds them, whether work spreads across cores); each
 * individual's fitness comes from an MCTS pass over its tiling table.
 * The top-K individuals seed the next population through crossover
 * and mutation.
 *
 * Each generation's individuals are evaluated concurrently on a
 * ThreadPool. Every (generation, individual) pair gets its own Rng
 * seeded with mixSeed(seed, generation, index), and selection /
 * crossover stay on the caller's thread, so the search trajectory is
 * bit-identical for a fixed seed regardless of thread count. A shared
 * EvalCache memoizes mapping evaluations across individuals and
 * generations.
 *
 * Fault tolerance: individual fitness evaluation goes through the
 * guarded boundary (mapper/guard.hpp), so a throwing or NaN-poisoned
 * candidate becomes an invalid individual with its reason counted in
 * `GeneticResult.failureHistogram` — never an aborted search. Fresh
 * offspring are pre-screened (one tree build: validateTree plus the
 * lower-bound capacity screen) before paying for a full MCTS pass;
 * rejects are resampled and counted separately in
 * `prescreenRejects`. Wall-clock / evaluation budgets
 * and external cancellation are polled at generation boundaries (and,
 * via the shared StopControl, at each tuner's batch boundaries);
 * tripping them returns best-so-far with `timedOut` set. With a
 * verdict log set (setVerdictLog), a re-run from the same seed replays
 * a killed run's evaluations from the log, so the resumed search is
 * bit-identical to an uninterrupted one (for a fixed seed and thread
 * count); the log is fsynced at each generation boundary.
 */

#ifndef TILEFLOW_MAPPER_GENETIC_HPP
#define TILEFLOW_MAPPER_GENETIC_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/evaluator.hpp"
#include "common/rng.hpp"
#include "common/stop.hpp"
#include "common/threadpool.hpp"
#include "mapper/encoding.hpp"
#include "mapper/evalcache.hpp"
#include "mapper/guard.hpp"

namespace tileflow {

/** GA configuration. */
struct GeneticConfig
{
    int populationSize = 8;
    int generations = 10;
    int topK = 3;
    double mutationRate = 0.25;
    int mctsSamplesPerIndividual = 40;

    /** MCTS rollout batch size (see MctsTuner::setBatch). */
    int mctsBatch = 8;

    /** Worker threads when no pool is passed in (the mapper then
     *  runs on ThreadPool::shared(threads)); 0 means
     *  ThreadPool::defaultThreadCount() (TILEFLOW_THREADS). */
    int threads = 0;

    uint64_t seed = 0x7ea51eafULL;

    /** Wall-clock budget in ms (0 = unlimited). On expiry the search
     *  returns best-so-far with `timedOut` set — never throws. */
    int64_t timeBudgetMs = 0;

    /** Cap on Evaluator::evaluate calls (0 = unlimited). Checked at
     *  generation and rollout-batch boundaries; a batch in flight
     *  completes, so the cap can be overshot by at most one batch per
     *  concurrent tuner. */
    int64_t maxEvaluations = 0;

    /** External kill switch (nullable; must outlive run()). */
    const CancellationToken* cancel = nullptr;

    /** Pre-screen offspring with validateTree (cheap structural
     *  checks) and the lower-bound capacity screen before paying full
     *  evaluation. */
    bool prescreen = true;

    /**
     * Branch-and-bound screening in the per-individual tuners (see
     * MctsTuner::setBoundPrune): candidates whose admissible lower
     * bound cannot beat the generation-boundary best are discarded
     * without full evaluation. Deliberately NOT part of the
     * checkpoint config hash: a verdict does not depend on it, so a
     * log written with either setting serves the other — but the
     * flag IS part of the search trajectory, so flipping it across a
     * kill/resume replays only the verdicts the new trajectory meets.
     */
    bool boundPrune = true;

    /** Resample attempts per offspring slot when pre-screening
     *  rejects a candidate; the last attempt is kept regardless. */
    int prescreenRetries = 4;

    /** Emit an inform() progress line (best-so-far, evals/sec, cache
     *  hit rate, deadline remaining) at most every this many
     *  milliseconds, polled at generation boundaries (<= 0: off). */
    int64_t progressIntervalMs = 0;
};

/** One evolved individual. */
struct Individual
{
    std::vector<int64_t> choices;

    /** Meaningful only when `valid` (NaN otherwise). */
    double cycles = 0.0;
    bool valid = false;
};

/** GA outcome. */
struct GeneticResult
{
    Individual best;

    /** Best-so-far cycles after each generation (Fig. 9b/9c traces).
     *  NaN for generations before the first valid individual. */
    std::vector<double> trace;

    /** Actual Evaluator::evaluate invocations (cache hits excluded). */
    int evaluations = 0;

    /** Candidates discarded by the branch-and-bound lower bound —
     *  never fully evaluated, never counted in `evaluations`. */
    uint64_t boundPruned = 0;

    /** EvalCache counters for the run. */
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;

    /** True when a budget / cancellation ended the run early;
     *  `stopReason` says why. Best-so-far fields stay usable. */
    bool timedOut = false;
    std::string stopReason;

    /** Failed (throwing / NaN-poisoned) candidate evaluations, by
     *  reason — runtime infeasibility, distinct from prescreen. */
    FailureHistogram failureHistogram;

    /** Offspring rejected by the cheap validateTree pre-screen before
     *  any evaluation was paid for. */
    uint64_t prescreenRejects = 0;

    /** Wall clock consumed by the search, plus the search time the
     *  verdict log recorded for earlier (killed) runs: what the time
     *  budget is charged against across kill/resume cycles. */
    int64_t elapsedMs = 0;
};

/** The GA driver; composes with MctsTuner per individual. */
class GeneticMapper
{
  public:
    /**
     * `pool` / `cache` may be shared with other components; when null
     * the mapper uses ThreadPool::shared(config.threads) and a cache
     * of its own.
     */
    GeneticMapper(const Evaluator& evaluator, const MappingSpace& space,
                  GeneticConfig config = {}, ThreadPool* pool = nullptr,
                  EvalCache* cache = nullptr)
        : evaluator_(&evaluator),
          space_(&space),
          config_(config),
          pool_(pool),
          cache_(cache)
    {
    }

    /**
     * Memoize per-subtree analysis partials of candidate evaluations
     * and lower bounds in `cache` (nullptr: none), shared by every
     * per-individual tuner. Crossover and mutation change a handful of
     * structural genes, so offspring keep most of their parents'
     * evaluated subtrees warm in the cache. Results are bit-identical
     * either way — the search trajectory does not depend on it.
     */
    void setSubtreeCache(SubtreeCache* cache) { subtrees_ = cache; }

    /** Replay and record evaluator verdicts through `log` (nullptr:
     *  none), shared by every per-individual tuner; see
     *  mapper/verdictlog.hpp. */
    void setVerdictLog(VerdictLog* log) { log_ = log; }

    GeneticResult run();

  private:
    const Evaluator* evaluator_;
    const MappingSpace* space_;
    GeneticConfig config_;
    ThreadPool* pool_;
    EvalCache* cache_;
    SubtreeCache* subtrees_ = nullptr;
    VerdictLog* log_ = nullptr;
};

} // namespace tileflow

#endif // TILEFLOW_MAPPER_GENETIC_HPP
