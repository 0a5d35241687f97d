#include "mapper/genetic.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>

#include "common/logging.hpp"
#include "common/strings.hpp"
#include "common/telemetry.hpp"
#include "core/validate.hpp"
#include "mapper/checkpoint.hpp"
#include "mapper/mcts.hpp"

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

void
writeIndividual(CkptWriter& w, const Individual& ind)
{
    w.u64(ind.valid ? 1 : 0);
    w.d(ind.cycles);
    w.u64(ind.choices.size());
    for (int64_t c : ind.choices)
        w.i64(c);
}

bool
readIndividual(CkptReader& r, Individual& ind)
{
    ind.valid = r.u64() != 0;
    ind.cycles = r.d();
    const uint64_t n = r.u64();
    if (!r.ok() || n > (1u << 20))
        return false;
    ind.choices.resize(size_t(n));
    for (auto& c : ind.choices)
        c = r.i64();
    return r.ok();
}

} // namespace

GeneticResult
GeneticMapper::run()
{
    GeneticResult result;

    // Wall clock for the time budget. A resumed run restores the
    // pre-kill elapsed time from the checkpoint and arms the deadline
    // with only the *remaining* budget — not a fresh full one.
    const auto run_start = std::chrono::steady_clock::now();
    int64_t restored_elapsed_ms = 0;

    MetricsRegistry& metrics = MetricsRegistry::global();
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
    // Counter snapshots are taken AFTER the checkpoint-restore block
    // below: a rejected checkpoint clears the cache, which also zeroes
    // its counters, and a snapshot straddling that reset would make
    // the per-run deltas wrap. Restore itself does no lookups.
    uint64_t hits_before = 0;
    uint64_t misses_before = 0;
    // Pre-kill counter portion restored from a checkpoint.
    uint64_t restored_hits = 0;
    uint64_t restored_misses = 0;

    // Armed after the restore block, once the pre-kill elapsed time is
    // known; lambdas below capture it by reference.
    StopControl stop;
    // Budget accounting shared by all concurrent tuners. Adds are
    // relaxed and the stop decision reads a racy snapshot: budgets
    // are best-effort at >1 thread, exact at one.
    std::atomic<int64_t> global_evals{0};

    const std::vector<size_t> structural = space_->structuralKnobs();

    // Admissible lower bounds for the offspring prescreen's capacity
    // check and (when config_.boundPrune) the tuners' branch-and-bound
    // screen; mirrors the evaluator's workload/spec/options.
    const LowerBoundEvaluator lower_bound(*evaluator_);

    // Declared before the lambdas that read it: `best` is only
    // written serially at generation boundaries (and by the restore
    // block), so the workers of a generation all see the same value.
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
        tuner.setBatch(config_.mctsBatch);
        tuner.setStop(&stop, &global_evals);
        if (config_.boundPrune) {
            // The seed threshold is the generation-boundary best,
            // read here on a worker but only ever written between
            // generations (and by the restore block) — every tuner
            // of a generation prunes against the same incumbent.
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

    // ---- Checkpoint plumbing -------------------------------------
    uint64_t config_hash = kCkptHashInit;
    int start_gen = 0;

    if (!config_.checkpointPath.empty()) {
        config_hash = ckptHash(config_hash, config_.seed);
        config_hash = ckptHash(config_hash,
                               uint64_t(config_.populationSize));
        config_hash = ckptHash(config_hash,
                               uint64_t(config_.generations));
        config_hash = ckptHash(config_hash, uint64_t(config_.topK));
        config_hash = ckptHashDouble(config_hash, config_.mutationRate);
        config_hash = ckptHash(
            config_hash, uint64_t(config_.mctsSamplesPerIndividual));
        config_hash = ckptHash(config_hash, uint64_t(config_.mctsBatch));
        config_hash = ckptHash(config_hash,
                               config_.prescreen ? 1 : 0);
        config_hash = ckptHash(config_hash,
                               uint64_t(config_.prescreenRetries));
        config_hash = ckptHashSpace(config_hash, *space_);
    }

    std::vector<Individual> population;

    if (!config_.checkpointPath.empty()) {
        if (std::optional<CkptReader> r = CkptReader::open(
                config_.checkpointPath, "ga", config_hash)) {
            GeneticResult restored;
            std::vector<Individual> restored_pop;
            Individual restored_best;
            r->tag("gen");
            const int64_t gen = r->i64();
            r->tag("best");
            bool state_ok = readIndividual(*r, restored_best);
            r->tag("population");
            const uint64_t npop = r->u64();
            if (npop == uint64_t(config_.populationSize)) {
                restored_pop.resize(size_t(npop));
                for (auto& ind : restored_pop)
                    state_ok = state_ok && readIndividual(*r, ind);
            } else {
                state_ok = false;
            }
            r->tag("trace");
            const uint64_t ntrace = r->u64();
            restored.trace.resize(size_t(ntrace));
            for (auto& t : restored.trace)
                t = r->d();
            r->tag("evals");
            restored.evaluations = int(r->i64());
            // Unconditional (0 when pruning is off): checkpoints
            // interoperate across the boundPrune setting, which is
            // deliberately NOT in the config hash.
            r->tag("bpruned");
            restored.boundPruned = r->u64();
            r->tag("elapsedms");
            const int64_t ckpt_elapsed_ms = r->i64();
            r->tag("cachedelta");
            restored_hits = r->u64();
            restored_misses = r->u64();
            state_ok = state_ok &&
                       ckptReadHistogram(*r, restored.failureHistogram);
            r->tag("prescreen");
            restored.prescreenRejects = r->u64();
            r->tag("rng");
            const std::string rng_state = r->str();
            state_ok = state_ok && ckptReadCache(*r, *cache);
            if (state_ok && r->ok()) {
                result = std::move(restored);
                result.resumed = true;
                best = restored_best;
                population = std::move(restored_pop);
                start_gen = int(gen);
                restored_elapsed_ms = ckpt_elapsed_ms;
                std::istringstream is(rng_state);
                is >> rng.engine();
                global_evals.store(result.evaluations,
                                   std::memory_order_relaxed);
                // Credit the pre-kill portion into the process-wide
                // metrics so registry totals equal the checkpoint-
                // aware totals reported in the result.
                metrics.counter("mapper.evaluations")
                    .add(uint64_t(result.evaluations));
                metrics.counter("mapper.failed_evaluations")
                    .add(histogramTotal(result.failureHistogram));
                // Keep the analysis/mapper counter reconciliation
                // intact across kill/resume (see mcts.cpp).
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
                warn("ga checkpoint '", config_.checkpointPath,
                     "': truncated state; starting fresh");
                restored_hits = 0;
                restored_misses = 0;
                cache->clear();
            }
        }
    }

    hits_before = cache->hits();
    misses_before = cache->misses();
    stop = StopControl(Deadline::afterRemainingMs(config_.timeBudgetMs,
                                                  restored_elapsed_ms),
                       config_.cancel, config_.maxEvaluations);

    auto save_checkpoint = [&](int next_gen) {
        if (config_.checkpointPath.empty())
            return;
        CkptWriter w("ga", config_hash);
        w.tag("gen");
        w.i64(next_gen);
        w.tag("best");
        writeIndividual(w, best);
        w.tag("population");
        w.u64(population.size());
        for (const Individual& ind : population)
            writeIndividual(w, ind);
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
        w.u64(restored_hits + (cache->hits() - hits_before));
        w.u64(restored_misses + (cache->misses() - misses_before));
        ckptWriteHistogram(w, result.failureHistogram);
        w.tag("prescreen");
        w.u64(result.prescreenRejects);
        w.tag("rng");
        std::ostringstream os;
        os << rng.engine();
        w.str(os.str());
        ckptWriteCache(w, *cache);
        w.writeTo(config_.checkpointPath);
    };
    // --------------------------------------------------------------

    if (population.empty()) {
        for (int i = 0; i < config_.populationSize; ++i)
            population.push_back(random_individual());
        // A started run is immediately resumable: persist the initial
        // population before any evaluation, so a budget that trips
        // inside generation 0 (easy when bound pruning concentrates
        // the full evaluations early) still leaves a checkpoint
        // behind. Resume replays generation 0 in full — the same
        // replay-the-degraded-generation contract as below.
        save_checkpoint(start_gen);
    }

    const int64_t evals_at_start =
        global_evals.load(std::memory_order_relaxed);
    ProgressMeter progress(config_.progressIntervalMs);

    int gens_since_ckpt = 0;
    for (int gen = start_gen; gen < config_.generations; ++gen) {
        if (const char* why = stop.stopReason(
                global_evals.load(std::memory_order_relaxed))) {
            result.timedOut = true;
            result.stopReason = why;
            // The state at a generation boundary is complete (no
            // degraded tuners), so persist it on the way out — with
            // checkpointEveryGens > 1 a cancellation would otherwise
            // discard up to N-1 finished generations.
            if (gens_since_ckpt > 0)
                save_checkpoint(gen);
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
                   uint64_t(double(evals_now - evals_at_start) / secs),
                   "/s) cache-hit=",
                   h + m > 0 ? int(100.0 * double(h) / double(h + m)) : 0,
                   "% deadline=",
                   left < 0 ? std::string("unlimited")
                            : concat(left, "ms"));
        }

        // A generation whose tuners were cut short by the budget is
        // degraded: report its best-so-far but never checkpoint it —
        // a resumed run replays it in full, which is what keeps
        // resume bit-identical to an uninterrupted run.
        if (cut_short ||
            stop.shouldStop(
                global_evals.load(std::memory_order_relaxed))) {
            result.timedOut = true;
            const char* why = stop.stopReason(
                global_evals.load(std::memory_order_relaxed));
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

        if (++gens_since_ckpt >= config_.checkpointEveryGens ||
            gen + 1 == config_.generations) {
            save_checkpoint(gen + 1);
            gens_since_ckpt = 0;
        }
    }

    result.best = best;
    result.cacheHits = restored_hits + (cache->hits() - hits_before);
    result.cacheMisses =
        restored_misses + (cache->misses() - misses_before);
    result.elapsedMs = restored_elapsed_ms + msSince(run_start);
    return result;
}

} // namespace tileflow
