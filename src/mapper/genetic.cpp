#include "mapper/genetic.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>

#include "common/logging.hpp"
#include "common/strings.hpp"
#include "common/telemetry.hpp"
#include "core/validate.hpp"
#include "mapper/mcts.hpp"
#include "mapper/verdictlog.hpp"

namespace tileflow {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

int64_t
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Valid individuals first, then by ascending cycles. */
bool
fitterThan(const Individual& a, const Individual& b)
{
    if (a.valid != b.valid)
        return a.valid;
    if (!a.valid)
        return false; // invalid individuals are equivalent
    return a.cycles < b.cycles;
}

} // namespace

GeneticResult
GeneticMapper::run()
{
    GeneticResult result;

    // Wall clock for the time budget. A resumed run is charged the
    // search time its verdict log recorded, and arms the deadline with
    // only the *remaining* budget — not a fresh full one.
    const auto run_start = std::chrono::steady_clock::now();
    const int64_t logged_ms = log_ ? log_->loggedElapsedMs() : 0;
    auto elapsed_ms = [&] { return logged_ms + msSince(run_start); };

    static Counter& gen_counter =
        MetricsRegistry::global().counter("ga.generations");
    static Histogram& gen_hist =
        MetricsRegistry::global().histogram("ga.generation_ns");

    // GA-level randomness (population init, selection, crossover,
    // prescreen resampling) stays on this thread and never interleaves
    // with the workers'.
    Rng rng(config_.seed);

    ThreadPool* pool = pool_;
    if (!pool) {
        pool = &ThreadPool::shared(
            config_.threads > 0 ? size_t(config_.threads) : 0);
    }
    std::unique_ptr<EvalCache> own_cache;
    EvalCache* cache = cache_;
    if (!cache) {
        own_cache = std::make_unique<EvalCache>();
        cache = own_cache.get();
    }
    const uint64_t hits_before = cache->hits();
    const uint64_t misses_before = cache->misses();

    const StopControl stop(
        Deadline::afterRemainingMs(config_.timeBudgetMs, logged_ms),
        config_.cancel, config_.maxEvaluations);
    // Budget accounting shared by all concurrent tuners. Adds are
    // relaxed and the stop decision reads a racy snapshot: budgets
    // are best-effort at >1 thread, exact at one.
    std::atomic<int64_t> global_evals{0};
    // Polled at generation boundaries; the deadline waits while the
    // verdict log replays (as in the tuners).
    auto stop_reason = [&] {
        return stop.stopReason(
            global_evals.load(std::memory_order_relaxed),
            log_ != nullptr && log_->replaying());
    };

    const std::vector<size_t> structural = space_->structuralKnobs();

    // Admissible lower bounds for the offspring prescreen's capacity
    // check and (when config_.boundPrune) the tuners' branch-and-bound
    // screen; mirrors the evaluator's workload/spec/options.
    const LowerBoundEvaluator lower_bound(*evaluator_);

    // Declared before the lambdas that read it: `best` is only
    // written serially at generation boundaries, so the workers of a
    // generation all see the same value.
    Individual best;

    auto random_individual = [&]() {
        Individual ind;
        ind.choices = space_->defaultChoices();
        for (size_t idx : structural) {
            ind.choices[idx] =
                rng.choice(space_->knobs()[idx].choices);
        }
        return ind;
    };

    // Cheap offspring screen: ONE tree build serves both checks —
    // structural validateTree and the lower-bound capacity screen
    // (which rejects only trees the full evaluator would reject for
    // a buffer overflow; see analysis/lowerbound.hpp). No
    // data-movement / latency analysis is paid. A throwing builder
    // counts as a reject like any hard validation error. The
    // capacity part is independent of config_.boundPrune so the
    // prescreen trajectory is identical with pruning on or off.
    auto passes_prescreen = [&](const std::vector<int64_t>& choices) {
        try {
            const AnalysisTree tree = space_->build(choices);
            for (const std::string& problem :
                 validateTree(tree, &evaluator_->spec())) {
                if (!startsWith(problem, "warn:"))
                    return false;
            }
            return !lower_bound.capacityRejects(tree);
        } catch (const std::exception&) {
            return false;
        }
    };

    // Tune one individual's tiling with a private, deterministically
    // seeded Rng; returns the tuner's stats for serial merging.
    auto evaluate = [&](Individual& ind, int gen, int index) {
        Rng ind_rng(mixSeed(config_.seed, uint64_t(gen),
                            uint64_t(index)));
        MctsTuner tuner(*evaluator_, *space_, ind_rng);
        tuner.setSubtreeCache(subtrees_);
        tuner.setCache(cache);
        tuner.setVerdictLog(log_);
        tuner.setBatch(config_.mctsBatch);
        tuner.setStop(&stop, &global_evals);
        if (config_.boundPrune) {
            // The seed threshold is the generation-boundary best,
            // read here on a worker but only ever written between
            // generations — every tuner of a generation prunes
            // against the same incumbent.
            tuner.setBoundPrune(
                &lower_bound,
                best.valid
                    ? best.cycles
                    : std::numeric_limits<double>::infinity());
        }
        MctsResult tuned =
            tuner.tune(ind.choices, config_.mctsSamplesPerIndividual);
        ind.valid = tuned.found;
        ind.cycles = tuned.found ? tuned.bestCycles : kNaN;
        if (tuned.found)
            ind.choices = tuned.bestChoices;
        return tuned;
    };

    std::vector<Individual> population;
    for (int i = 0; i < config_.populationSize; ++i)
        population.push_back(random_individual());

    ProgressMeter progress(config_.progressIntervalMs);

    for (int gen = 0; gen < config_.generations; ++gen) {
        if (const char* why = stop_reason()) {
            result.timedOut = true;
            result.stopReason = why;
            break;
        }

        const TraceSpan gen_span("ga.generation", "mapper");
        const ScopedLatency gen_timer(gen_hist);
        gen_counter.add();

        // One worker task per individual; each tuner evaluates its own
        // rollout batches inline on the worker it landed on.
        std::vector<MctsResult> tuned(population.size());
        pool->parallelFor(population.size(), [&](size_t i) {
            tuned[i] = evaluate(population[i], gen, int(i));
        });
        bool cut_short = false;
        for (const MctsResult& t : tuned) {
            result.evaluations += t.evaluations;
            result.boundPruned += t.boundPruned;
            mergeHistogram(result.failureHistogram, t.failureHistogram);
            cut_short = cut_short || t.timedOut;
        }

        std::sort(population.begin(), population.end(), fitterThan);
        if (population.front().valid &&
            (!best.valid ||
             population.front().cycles < best.cycles)) {
            best = population.front();
        }
        result.trace.push_back(best.valid ? best.cycles : kNaN);
        if (log_)
            log_->sync(elapsed_ms(),
                       global_evals.load(std::memory_order_relaxed));

        if (progress.due()) {
            const int64_t evals_now =
                global_evals.load(std::memory_order_relaxed);
            const double secs =
                std::max(1e-3, double(msSince(run_start)) / 1e3);
            const uint64_t h = cache->hits() - hits_before;
            const uint64_t m = cache->misses() - misses_before;
            const int64_t left = stop.deadline().remainingMs();
            inform("progress: gen ", gen + 1, "/", config_.generations,
                   " best=",
                   best.valid ? concat(uint64_t(best.cycles), " cycles")
                              : std::string("none"),
                   " evals=", evals_now, " (",
                   uint64_t(double(evals_now) / secs),
                   "/s) cache-hit=",
                   h + m > 0 ? int(100.0 * double(h) / double(h + m)) : 0,
                   "% deadline=",
                   left < 0 ? std::string("unlimited")
                            : concat(left, "ms"));
        }

        // A generation whose tuners were cut short by the budget
        // ends the search with its best-so-far.
        if (const char* why = stop_reason(); cut_short || why) {
            result.timedOut = true;
            result.stopReason = why ? why : "deadline";
            break;
        }

        // Elitism + crossover + mutation; offspring are pre-screened
        // with cheap structural validation before any evaluation is
        // paid for (rejects are resampled and counted separately).
        const int keep =
            std::min<int>(config_.topK, int(population.size()));
        std::vector<Individual> next(population.begin(),
                                     population.begin() + keep);
        while (int(next.size()) < config_.populationSize) {
            Individual child;
            const int attempts =
                config_.prescreen ? std::max(1, config_.prescreenRetries)
                                  : 1;
            for (int attempt = 0; attempt < attempts; ++attempt) {
                const Individual& a =
                    population[rng.index(size_t(keep))];
                const Individual& b =
                    population[rng.index(size_t(keep))];
                child.choices = a.choices;
                for (size_t idx : structural) {
                    if (rng.flip(0.5))
                        child.choices[idx] = b.choices[idx];
                    if (rng.flip(config_.mutationRate)) {
                        child.choices[idx] =
                            rng.choice(space_->knobs()[idx].choices);
                    }
                }
                if (!config_.prescreen ||
                    passes_prescreen(child.choices))
                    break;
                result.prescreenRejects += 1;
                // Out of retries: keep the last candidate anyway; the
                // guarded runtime evaluation will classify it.
            }
            next.push_back(std::move(child));
        }
        population = std::move(next);
    }

    result.best = best;
    result.cacheHits = cache->hits() - hits_before;
    result.cacheMisses = cache->misses() - misses_before;
    result.elapsedMs = elapsed_ms();
    return result;
}

} // namespace tileflow
