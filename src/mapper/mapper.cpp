#include "mapper/mapper.hpp"

#include "analysis/subtreecache.hpp"
#include "common/logging.hpp"
#include "common/threadpool.hpp"

namespace tileflow {

MapperResult
exploreSpace(const Evaluator& evaluator, const MappingSpace& space,
             const MapperConfig& config)
{
    GeneticConfig ga;
    ga.generations = config.rounds;
    ga.populationSize = config.population;
    ga.mctsSamplesPerIndividual = config.tilingSamples;
    ga.mctsBatch = config.mctsBatch;
    ga.seed = config.seed;
    ga.timeBudgetMs = config.timeBudgetMs;
    ga.maxEvaluations = config.maxEvaluations;
    ga.cancel = config.cancel;
    ga.checkpointPath = config.checkpointPath;
    ga.checkpointEveryGens = config.checkpointEveryRounds;
    ga.progressIntervalMs = config.progressIntervalMs;
    ga.boundPrune = config.boundPrune;

    ThreadPool& pool =
        ThreadPool::shared(config.threads > 0 ? size_t(config.threads) : 0);
    EvalCache cache(16, config.evalCacheCap);
    SubtreeCache subtree_cache(16, config.subtreeCacheCap);

    GeneticMapper mapper(evaluator, space, ga, &pool, &cache);
    mapper.setSubtreeCache(&subtree_cache);
    const GeneticResult ga_result = mapper.run();

    MapperResult result(evaluator.workload());
    result.trace = ga_result.trace;
    result.evaluations = ga_result.evaluations;
    result.boundPruned = ga_result.boundPruned;
    result.cacheHits = ga_result.cacheHits;
    result.cacheMisses = ga_result.cacheMisses;
    result.timedOut = ga_result.timedOut;
    result.stopReason = ga_result.stopReason;
    result.resumed = ga_result.resumed;
    result.failureHistogram = ga_result.failureHistogram;
    result.failedEvaluations = histogramTotal(result.failureHistogram);
    result.prescreenRejects = ga_result.prescreenRejects;
    result.elapsedMs = ga_result.elapsedMs;
    if (ga_result.best.valid) {
        result.found = true;
        result.bestCycles = ga_result.best.cycles;
        result.bestChoices = ga_result.best.choices;
        result.bestTree = space.build(ga_result.best.choices);
    }
    return result;
}

MapperResult
exploreTiling(const Evaluator& evaluator, const MappingSpace& space,
              int samples, uint64_t seed, const MapperConfig& config)
{
    Rng rng(seed);
    ThreadPool& pool =
        ThreadPool::shared(config.threads > 0 ? size_t(config.threads) : 0);
    EvalCache cache(16, config.evalCacheCap);
    SubtreeCache subtree_cache(16, config.subtreeCacheCap);

    const StopControl stop(Deadline::afterMs(config.timeBudgetMs),
                           config.cancel, config.maxEvaluations);

    const LowerBoundEvaluator lower_bound(evaluator);

    MctsTuner tuner(evaluator, space, rng);
    tuner.setSubtreeCache(&subtree_cache);
    if (config.boundPrune)
        tuner.setBoundPrune(&lower_bound);
    tuner.setPool(&pool);
    tuner.setCache(&cache);
    tuner.setBatch(config.mctsBatch);
    tuner.setStop(&stop);
    tuner.setProgress(config.progressIntervalMs);
    if (!config.checkpointPath.empty()) {
        tuner.setCheckpoint(config.checkpointPath,
                            config.checkpointEveryBatches, seed);
    }
    const MctsResult tuned = tuner.tune(space.defaultChoices(), samples);

    MapperResult result(evaluator.workload());
    result.trace = tuned.trace;
    // Actual evaluator invocations — NOT `samples`: memoized repeats
    // and the no-factor-knob early path (one evaluation) both made the
    // old `= samples` accounting a lie.
    result.evaluations = tuned.evaluations;
    result.boundPruned = tuned.boundPruned;
    result.cacheHits = tuned.cacheHits;
    result.cacheMisses = tuned.cacheMisses;
    result.timedOut = tuned.timedOut;
    result.stopReason = tuned.stopReason;
    result.resumed = tuned.resumed;
    result.failureHistogram = tuned.failureHistogram;
    result.failedEvaluations = histogramTotal(result.failureHistogram);
    result.elapsedMs = tuned.elapsedMs;
    if (tuned.found) {
        result.found = true;
        result.bestCycles = tuned.bestCycles;
        result.bestChoices = tuned.bestChoices;
        result.bestTree = space.build(tuned.bestChoices);
    }
    return result;
}

} // namespace tileflow
