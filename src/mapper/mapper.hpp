/**
 * @file
 * The TileFlow mapper facade (Sec. 6): genetic algorithm over the
 * ordering/binding space combined with MCTS over tiling tables.
 *
 * Exploration runs on the process-wide ThreadPool::shared() pool of
 * MapperConfig::threads workers (defaulting to TILEFLOW_THREADS /
 * hardware_concurrency), whose workers persist across searches, with
 * a sharded EvalCache memoizing repeated
 * mapping evaluations. For a fixed seed the result is bit-identical
 * across thread counts; only the wall clock changes.
 *
 * The search is fault-tolerant: candidate evaluations that throw or
 * return non-finite results are recorded as infeasible (see
 * MapperResult::failureHistogram) instead of aborting; wall-clock /
 * evaluation budgets and external cancellation degrade gracefully to
 * best-so-far with `timedOut` set; and with `checkpointPath` set every
 * evaluator verdict is logged (mapper/verdictlog.hpp) so an
 * interrupted run, re-run, resumes bit-identically.
 */

#ifndef TILEFLOW_MAPPER_MAPPER_HPP
#define TILEFLOW_MAPPER_MAPPER_HPP

#include <string>

#include "analysis/evaluator.hpp"
#include "common/stop.hpp"
#include "mapper/encoding.hpp"
#include "mapper/evalcache.hpp"
#include "mapper/genetic.hpp"
#include "mapper/guard.hpp"
#include "mapper/mcts.hpp"

namespace tileflow {

/** Mapper configuration (maps onto Sec. 7.2's round structure). */
struct MapperConfig
{
    /** GA generations ("rounds" in Fig. 9b/9c). */
    int rounds = 10;

    /** Individuals per generation. */
    int population = 8;

    /** MCTS samples used to tune each individual's tiling. */
    int tilingSamples = 40;

    /** MCTS rollout batch size (fixed across thread counts so the
     *  search trajectory is too). */
    int mctsBatch = 8;

    /** Evaluation worker threads; 0 = ThreadPool::defaultThreadCount()
     *  (the TILEFLOW_THREADS environment variable when set). */
    int threads = 0;

    uint64_t seed = 0x7ea51eafULL;

    /** Wall-clock budget in milliseconds (0 = unlimited). Expiry is
     *  polled at generation / rollout-batch boundaries; the search
     *  returns best-so-far with `timedOut` set, never throws. */
    int64_t timeBudgetMs = 0;

    /** Cap on Evaluator::evaluate calls (0 = unlimited); best-effort,
     *  overshoots by at most one batch per concurrent tuner. */
    int64_t maxEvaluations = 0;

    /** External kill switch (nullable; must outlive the call). */
    const CancellationToken* cancel = nullptr;

    /** Checkpoint file ("" disables): the search's verdict log (see
     *  mapper/verdictlog.hpp). If one written by the same search on
     *  the same model exists there, the search replays its verdicts
     *  instead of re-evaluating them; otherwise it starts a fresh log.
     *  A crash loses at most the unwritten tail. */
    std::string checkpointPath;

    /** Emit an inform() progress line (best-so-far, evals/sec, cache
     *  hit rate, deadline remaining) at most every this many
     *  milliseconds, polled at the StopControl polling points
     *  (generation / rollout-batch boundaries). <= 0 disables. */
    int64_t progressIntervalMs = 0;

    /**
     * Branch-and-bound candidate screening (analysis/lowerbound.hpp):
     * every sampled candidate is lower-bounded first, and one that
     * provably cannot beat the best-so-far — or provably overflows a
     * buffer — is pruned without full evaluation (counted in
     * `MapperResult::boundPruned`, never in `evaluations`).
     * Deliberately NOT part of the checkpoint config hash: verdicts do
     * not depend on it, so a log serves either setting, although
     * pruning IS part of the search trajectory (pruned samples feed a
     * 0 reward back into the search).
     */
    bool boundPrune = true;

    /** SubtreeCache per-shard entry cap (0 = unbounded); see
     *  analysis/subtreecache.hpp. */
    size_t subtreeCacheCap = 4096;

    /** EvalCache per-shard entry cap (0 = unbounded). */
    size_t evalCacheCap = 0;
};

/** Exploration outcome. */
struct MapperResult
{
    AnalysisTree bestTree;
    std::vector<int64_t> bestChoices;
    double bestCycles = 0.0;
    bool found = false;

    /** Best-so-far cycles per round; NaN until the first valid
     *  mapping (never a DBL_MAX sentinel). */
    std::vector<double> trace;

    /** Actual Evaluator::evaluate invocations (== cache misses that
     *  reached the evaluator; repeated samples are memoized). */
    int evaluations = 0;

    /** Candidates discarded by the branch-and-bound lower bound —
     *  never fully evaluated, never counted in `evaluations`. */
    uint64_t boundPruned = 0;

    /** EvalCache counters for this exploration. */
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;

    /** True when a budget or cancellation ended the search early;
     *  `stopReason` is "deadline", "cancelled" or "evaluation
     *  budget". Best-so-far fields stay usable. */
    bool timedOut = false;
    std::string stopReason;

    /** True when the search resumed from an on-disk checkpoint: its
     *  verdict log held verdicts of this search. */
    bool resumed = false;

    /** Candidate evaluations that threw or returned non-finite
     *  results, keyed by failure reason. These are *search outcomes*
     *  (the candidate scores as infeasible), not errors. */
    FailureHistogram failureHistogram;

    /** Sum of failureHistogram counts. */
    uint64_t failedEvaluations = 0;

    /** Offspring rejected by the GA's cheap validateTree pre-screen
     *  (counted separately from runtime infeasibility). */
    uint64_t prescreenRejects = 0;

    /** Wall clock consumed by the search, plus the search time its
     *  checkpoint recorded for earlier (killed) runs: what the time
     *  budget was charged with. */
    int64_t elapsedMs = 0;

    explicit MapperResult(const Workload& workload)
        : bestTree(workload)
    {
    }
};

/** Run the full 3D-space exploration over a mapping space. */
MapperResult exploreSpace(const Evaluator& evaluator,
                          const MappingSpace& space,
                          const MapperConfig& config = {});

/** Run a tiling-only exploration (Fig. 9a): structural knobs fixed at
 *  their defaults, pure MCTS over the factors. */
MapperResult exploreTiling(const Evaluator& evaluator,
                           const MappingSpace& space, int samples,
                           uint64_t seed = 0x7ea51eafULL,
                           const MapperConfig& config = {});

} // namespace tileflow

#endif // TILEFLOW_MAPPER_MAPPER_HPP
