#include "mapper/mapper.hpp"

#include <memory>
#include <sstream>

#include "analysis/subtreecache.hpp"
#include "common/threadpool.hpp"
#include "mapper/verdictlog.hpp"

namespace tileflow {

namespace {

/**
 * Open the search's verdict log at `path` (null when empty). Its
 * config hash covers what decides a verdict — the arch, the workload,
 * the evaluation options, the fault injectors and the space's knob
 * menus — and what decides the trajectory: `search`, the engine
 * settings. Doubles print as hexfloat, so exactly. Cache caps and
 * bound pruning decide no verdict, so they stay out.
 */
std::unique_ptr<VerdictLog>
openVerdictLog(const std::string& path, const Evaluator& evaluator,
               const MappingSpace& space, const std::string& search)
{
    if (path.empty())
        return nullptr;
    std::ostringstream os;
    os << std::hexfloat << search << '\n';

    const ArchSpec& arch = evaluator.spec();
    os << arch.str() << "lanes " << arch.vectorLanes() << " word "
       << arch.wordBytes() << " direct " << arch.directInterLevelTransfer();
    for (const MemLevel& level : arch.levels())
        os << " capacity " << level.capacityBytes;
    os << '\n';

    const Workload& workload = evaluator.workload();
    for (const Dim& dim : workload.dims())
        os << "dim " << dim.name << ' ' << dim.extent << '\n';
    for (const Tensor& tensor : workload.tensors()) {
        os << "tensor " << tensor.name << ' ' << int(tensor.dtype);
        for (int64_t extent : tensor.shape)
            os << ' ' << extent;
        os << '\n';
    }
    for (const Operator& op : workload.ops()) {
        os << "op " << op.name() << ' ' << int(op.kind()) << ' '
           << op.opsPerPoint();
        for (DimId dim : op.dims())
            os << ' ' << dim << (op.isReduction(dim) ? "r" : "");
        for (const TensorAccess& access : op.accesses()) {
            os << " | " << access.tensor << ' ' << access.isWrite
               << access.isUpdate;
            for (const std::vector<AccessTerm>& expr : access.projection) {
                os << " (";
                for (const AccessTerm& term : expr)
                    os << ' ' << term.coeff << '*' << term.dim;
                os << " )";
            }
        }
        os << '\n';
    }

    const EvalOptions& options = evaluator.options();
    os << "options " << options.enforceMemory << options.enforceCompute
       << '\n';
    if (const FaultInjector* faults = evaluator.faultInjector()) {
        os << "faults " << faults->throwFraction() << ' '
           << faults->nanFraction() << ' ' << faults->oomFraction() << ' '
           << faults->seed() << '\n';
    }

    for (const Knob& knob : space.knobs()) {
        os << "knob " << knob.name << ' ' << knob.structural;
        for (int64_t choice : knob.choices)
            os << ' ' << choice;
        os << '\n';
    }
    return std::make_unique<VerdictLog>(path, os.str());
}

} // namespace

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
    ga.progressIntervalMs = config.progressIntervalMs;
    ga.boundPrune = config.boundPrune;

    std::ostringstream search;
    search << std::hexfloat << "ga " << ga.seed << ' ' << ga.populationSize
           << ' ' << ga.generations << ' ' << ga.topK << ' '
           << ga.mutationRate << ' ' << ga.mctsSamplesPerIndividual << ' '
           << ga.mctsBatch << ' ' << ga.prescreen << ' '
           << ga.prescreenRetries;
    const std::unique_ptr<VerdictLog> log =
        openVerdictLog(config.checkpointPath, evaluator, space, search.str());

    ThreadPool& pool =
        ThreadPool::shared(config.threads > 0 ? size_t(config.threads) : 0);
    EvalCache cache(16, config.evalCacheCap);
    SubtreeCache subtree_cache(16, config.subtreeCacheCap);

    GeneticMapper mapper(evaluator, space, ga, &pool, &cache);
    mapper.setSubtreeCache(&subtree_cache);
    mapper.setVerdictLog(log.get());
    const GeneticResult ga_result = mapper.run();
    if (log)
        log->sync(ga_result.elapsedMs, ga_result.evaluations);

    MapperResult result(evaluator.workload());
    result.trace = ga_result.trace;
    result.evaluations = ga_result.evaluations;
    result.boundPruned = ga_result.boundPruned;
    result.cacheHits = ga_result.cacheHits;
    result.cacheMisses = ga_result.cacheMisses;
    result.timedOut = ga_result.timedOut;
    result.stopReason = ga_result.stopReason;
    result.resumed = log && log->loaded() > 0;
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
    const std::vector<int64_t> base = space.defaultChoices();
    std::ostringstream search;
    search << "mcts " << seed << ' ' << config.mctsBatch << ' ' << samples;
    for (int64_t choice : base)
        search << ' ' << choice;
    const std::unique_ptr<VerdictLog> log =
        openVerdictLog(config.checkpointPath, evaluator, space, search.str());
    const int64_t logged_ms = log ? log->loggedElapsedMs() : 0;

    Rng rng(seed);
    ThreadPool& pool =
        ThreadPool::shared(config.threads > 0 ? size_t(config.threads) : 0);
    EvalCache cache(16, config.evalCacheCap);
    SubtreeCache subtree_cache(16, config.subtreeCacheCap);

    const StopControl stop(
        Deadline::afterRemainingMs(config.timeBudgetMs, logged_ms),
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
    tuner.setVerdictLog(log.get());
    const MctsResult tuned = tuner.tune(base, samples);

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
    result.resumed = log && log->loaded() > 0;
    result.failureHistogram = tuned.failureHistogram;
    result.failedEvaluations = histogramTotal(result.failureHistogram);
    result.elapsedMs = logged_ms + tuned.elapsedMs;
    if (log)
        log->sync(result.elapsedMs, result.evaluations);
    if (tuned.found) {
        result.found = true;
        result.bestCycles = tuned.bestCycles;
        result.bestChoices = tuned.bestChoices;
        result.bestTree = space.build(tuned.bestChoices);
    }
    return result;
}

} // namespace tileflow
