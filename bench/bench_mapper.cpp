/**
 * @file
 * Branch-and-bound screening microbench: candidate throughput of the
 * tiling search with the admissible lower bound (analysis/
 * lowerbound.hpp) armed vs disarmed.
 *
 * Each section runs the same MCTS tiling exploration (same seed, same
 * sample budget) twice through exploreTiling — once with
 * MapperConfig::boundPrune off (every candidate pays the full
 * analytical model) and once with it on (candidates that provably
 * cannot beat the best-so-far, or provably overflow a buffer, are
 * discarded after only the bound screen, most of them on its compute
 * roofline; a repeat of a pruned candidate reuses its bound from the
 * EvalCache). The headline metric is
 * candidates considered per second, where considered = fully evaluated
 * + bound-pruned; the acceptance bar (printed at the end, and the
 * process exit code) is >= 2x on at least one workload. The
 * mapper.bound_tightness histogram reports how close the bound runs to
 * the exact model on the candidates that were fully evaluated
 * (100 * bound / actual, in percent; its mean and max are printed).
 * Per run, bound_evals counts the bounds computed and bound_memo_hits
 * the bounds read back from bound-only EvalCache entries, and
 * prune_share_{roofline,capacity} the share of prunes each tier of the
 * bound screen decided.
 *
 * Emits the headline numbers as JSON (default BENCH_mapper.json; CI
 * uploads it as an artifact) so throughput regressions are diffable
 * across commits. --json PATH overrides the artifact path; --quick
 * shrinks the sample budget for CI.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "arch/presets.hpp"
#include "bench_util.hpp"
#include "common/telemetry.hpp"
#include "dataflows/attention.hpp"
#include "ir/shapes.hpp"
#include "mapper/mapper.hpp"

using namespace tileflow;

namespace {

/** The bound screen's tiers, in screen order, and their prune
 *  counters. */
constexpr int kNumTiers = 2;
const char* const kTiers[kNumTiers] = {"roofline", "capacity"};
const char* const kTierCounters[kNumTiers] = {
    "mapper.bound_pruned_roofline", "mapper.bound_pruned_capacity"};

struct RunStats
{
    double seconds = 0.0;
    uint64_t considered = 0; // evaluations + bound-pruned
    uint64_t evaluations = 0;
    uint64_t pruned = 0;
    uint64_t boundEvals = 0;
    uint64_t boundMemoHits = 0;
    uint64_t prunedByTier[kNumTiers] = {}; // indexed like kTiers
    double bestCycles = 0.0;
    bool found = false;
};

RunStats
runOnce(const Evaluator& model, const MappingSpace& space, int samples,
        bool prune)
{
    MapperConfig cfg;
    cfg.boundPrune = prune;
    MetricsRegistry& metrics = MetricsRegistry::global();
    const uint64_t bound_evals0 = metrics.counterValue("mapper.bound_evals");
    const uint64_t memo_hits0 =
        metrics.counterValue("mapper.bound_memo_hits");
    uint64_t tier0[kNumTiers];
    for (int t = 0; t < kNumTiers; ++t)
        tier0[t] = metrics.counterValue(kTierCounters[t]);
    const auto t0 = std::chrono::steady_clock::now();
    const MapperResult result =
        exploreTiling(model, space, samples, 0x1235813u, cfg);
    RunStats stats;
    stats.seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    stats.boundEvals =
        metrics.counterValue("mapper.bound_evals") - bound_evals0;
    stats.boundMemoHits =
        metrics.counterValue("mapper.bound_memo_hits") - memo_hits0;
    for (int t = 0; t < kNumTiers; ++t)
        stats.prunedByTier[t] =
            metrics.counterValue(kTierCounters[t]) - tier0[t];
    stats.evaluations = uint64_t(result.evaluations);
    stats.pruned = result.boundPruned;
    stats.considered = stats.evaluations + stats.pruned;
    stats.bestCycles = result.found ? result.bestCycles : 0.0;
    stats.found = result.found;
    return stats;
}

} // namespace

int
main(int argc, char** argv)
{
    int samples = 4000;
    std::string json_path = "BENCH_mapper.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            samples = 800;
        } else if (std::strcmp(argv[i], "--json") == 0 &&
                   i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: bench_mapper [--quick] [--json PATH]\n");
            return 2;
        }
    }

    bench::banner("Branch-and-bound screening: candidate throughput "
                  "with the lower bound armed vs disarmed");

    std::printf("%-10s %10s %10s %9s %10s %10s %9s\n", "workload",
                "off/s", "on/s", "speedup", "evals(on)", "pruned",
                "prune%");

    const ArchSpec edge = makeEdgeArch();
    bench::JsonReport json;
    json.number("samples", samples);
    double best_speedup = 0.0;

    for (const char* name : {"Bert-S", "Bert-L"}) {
        const Workload workload =
            buildAttention(attentionShape(name), true);
        const Evaluator model(workload, edge);
        const MappingSpace space =
            makeAttentionTilingSpace(workload, edge);

        const RunStats off = runOnce(model, space, samples, false);
        const RunStats on = runOnce(model, space, samples, true);

        const double off_rate = double(off.considered) / off.seconds;
        const double on_rate = double(on.considered) / on.seconds;
        const double speedup = off_rate > 0.0 ? on_rate / off_rate : 0.0;
        if (speedup > best_speedup)
            best_speedup = speedup;

        std::printf("%-10s %10.0f %10.0f %8.2fx %10llu %10llu %8.1f%%\n",
                    name, off_rate, on_rate, speedup,
                    (unsigned long long)on.evaluations,
                    (unsigned long long)on.pruned,
                    on.considered > 0
                        ? 100.0 * double(on.pruned) /
                              double(on.considered)
                        : 0.0);

        const std::string key = name;
        json.number(key + ".candidates_per_sec_off", off_rate);
        json.number(key + ".candidates_per_sec_on", on_rate);
        json.number(key + ".speedup", speedup);
        json.number(key + ".evaluations_on", double(on.evaluations));
        json.number(key + ".bound_pruned", double(on.pruned));
        json.number(key + ".bound_evals", double(on.boundEvals));
        json.number(key + ".bound_memo_hits", double(on.boundMemoHits));
        json.number(key + ".best_cycles_on", on.bestCycles);
        // Which screen tier decided the prunes (shares of on.pruned).
        std::printf("%-10s prunes by tier:", "");
        for (int t = 0; t < kNumTiers; ++t) {
            const double share =
                on.pruned > 0 ? double(on.prunedByTier[t]) /
                                    double(on.pruned)
                              : 0.0;
            std::printf(" %s %.1f%%", kTiers[t], 100.0 * share);
            json.number(key + ".prune_share_" + kTiers[t], share);
        }
        std::printf("\n");
        json.number(key + ".best_cycles_off", off.bestCycles);
    }

    // Bound tightness on the candidates that were fully evaluated:
    // 100 * bound / actual in percent. The histogram's quantiles are
    // power-of-two bucket bounds clamped to the max (every tightness
    // from 64 to 100 reads "<=100"), so report the exact mean and max.
    // 100% would be an exact bound; admissibility guarantees it never
    // exceeds 100.
    const Histogram& tightness =
        MetricsRegistry::global().histogram("mapper.bound_tightness");
    const double tightness_mean =
        tightness.count() > 0
            ? double(tightness.sumNs()) / double(tightness.count())
            : 0.0;
    if (tightness.count() > 0) {
        std::printf("\nbound tightness (100*bound/actual, %%): "
                    "mean %.1f max %llu over %llu evaluated "
                    "candidates\n",
                    tightness_mean,
                    (unsigned long long)tightness.maxNs(),
                    (unsigned long long)tightness.count());
    }
    json.number("tightness.count", double(tightness.count()));
    json.number("tightness.mean", tightness_mean);
    json.number("tightness.max", double(tightness.maxNs()));
    json.number("best_speedup", best_speedup);

    std::printf("\nbest speedup: %.2fx (acceptance bar: >= 2.0x on at "
                "least one workload)\n",
                best_speedup);

    if (json.writeTo(json_path))
        std::printf("json written to %s\n", json_path.c_str());
    else
        std::fprintf(stderr, "failed to write %s\n", json_path.c_str());

    std::printf("\nprocess-cumulative telemetry:\n%s",
                MetricsRegistry::global().table().c_str());
    return best_speedup >= 2.0 ? 0 : 1;
}
