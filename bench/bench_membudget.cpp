/**
 * @file
 * Memory-budget robustness bench (DESIGN.md §11): the same attention
 * search run three ways —
 *
 *   baseline   budget disabled (the pre-existing behavior),
 *   soft       a 1-byte soft limit pins the budget at soft pressure,
 *              so every cache runs with halved caps and continuous
 *              eviction; the contract is that results stay
 *              bit-identical to baseline (shrink changes hit rates,
 *              never values),
 *   hard cap   a hard limit below the process RSS pins the budget at
 *              hard pressure; evaluations are shed as tagged "oom"
 *              infeasibles and the search still runs to completion
 *              instead of aborting.
 *
 * The acceptance bar (checked at exit): the soft run is bit-identical
 * to baseline, the hard-capped run completes with every shed
 * evaluation accounted in the "oom" failure histogram, and the
 * mem.pressure_* counters are visible in the telemetry table.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "arch/presets.hpp"
#include "bench_util.hpp"
#include "common/membudget.hpp"
#include "common/telemetry.hpp"
#include "dataflows/attention.hpp"
#include "ir/shapes.hpp"
#include "mapper/mapper.hpp"

using namespace tileflow;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

uint64_t
counterValue(const char* name)
{
    return MetricsRegistry::global().counter(name).value();
}

bool
bitsEq(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

struct RunStats
{
    MapperResult result;
    double wall_s;
    uint64_t soft_events;
    uint64_t hard_events;
    uint64_t oom_evals;
};

RunStats
runSearch(const Evaluator& model, const MappingSpace& space,
          const MapperConfig& cfg, uint64_t soft, uint64_t hard)
{
    MemoryBudget& budget = MemoryBudget::global();
    budget.resetForTesting();
    if (soft != 0 || hard != 0) {
        budget.configure(soft, hard);
        budget.setPollInterval(1);
    }

    const uint64_t soft0 = counterValue("mem.pressure_soft_events");
    const uint64_t hard0 = counterValue("mem.pressure_hard_events");
    const uint64_t oom0 = counterValue("mem.oom_failed_evals");
    const auto t0 = std::chrono::steady_clock::now();
    MapperResult result = exploreSpace(model, space, cfg);
    const double wall = secondsSince(t0);
    budget.resetForTesting();
    return RunStats{std::move(result), wall,
                    counterValue("mem.pressure_soft_events") - soft0,
                    counterValue("mem.pressure_hard_events") - hard0,
                    counterValue("mem.oom_failed_evals") - oom0};
}

void
report(const char* label, const RunStats& stats)
{
    const MapperResult& r = stats.result;
    std::printf("%-10s %7s %14.6g %8llu %9llu %10llu %10llu %8.2fs\n",
                label, r.found ? "yes" : "no",
                r.found ? r.bestCycles : 0.0,
                (unsigned long long)r.evaluations,
                (unsigned long long)stats.oom_evals,
                (unsigned long long)stats.soft_events,
                (unsigned long long)stats.hard_events, stats.wall_s);
}

} // namespace

int
main()
{
    bench::banner("Memory budget: attention search under pressure "
                  "(baseline / soft / hard cap)");

    const Workload workload =
        buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(workload, edge);
    const MappingSpace space = makeAttentionSpace(workload, edge);

    MapperConfig cfg;
    cfg.rounds = 4;
    cfg.population = 8;
    cfg.tilingSamples = 16;
    cfg.seed = 1913;
    cfg.threads = 1;

    std::printf("%-10s %7s %14s %8s %9s %10s %10s %9s\n", "run",
                "found", "best cycles", "evals", "oom-shed",
                "soft-evts", "hard-evts", "wall");

    const RunStats baseline = runSearch(model, space, cfg, 0, 0);
    report("baseline", baseline);

    // Pinned soft pressure: caches shrink the whole way through.
    const RunStats soft = runSearch(model, space, cfg, 1, 0);
    report("soft", soft);

    // Pinned hard pressure: every evaluation shed, search completes.
    const RunStats hard = runSearch(model, space, cfg, 1, 1);
    report("hard", hard);

    bool ok = true;

    const bool soft_identical =
        baseline.result.found == soft.result.found &&
        baseline.result.bestChoices == soft.result.bestChoices &&
        bitsEq(baseline.result.bestCycles, soft.result.bestCycles);
    std::printf("\nsoft run bit-identical to baseline: %s\n",
                soft_identical ? "yes" : "NO");
    ok = ok && soft_identical && soft.soft_events > 0;

    const bool hard_survived =
        !hard.result.found && hard.oom_evals > 0 &&
        hard.hard_events > 0 &&
        hard.result.failureHistogram.count("oom") > 0;
    std::printf("hard-capped run completed, sheds tagged \"oom\": %s "
                "(%llu shed)\n",
                hard_survived ? "yes" : "NO",
                (unsigned long long)hard.oom_evals);
    ok = ok && hard_survived;

    std::printf("\nprocess-cumulative telemetry:\n%s",
                MetricsRegistry::global().table().c_str());
    std::printf("\nacceptance: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
