/**
 * @file
 * Design-space exploration with the TileFlow mapper (Sec. 6): the
 * genetic algorithm evolves the ordering/binding encoding while MCTS
 * tunes each individual's tiling table. Prints the convergence trace
 * and the best mapping it found, in the tile-centric notation.
 *
 * Usage: mapper_search [attention-shape] [rounds]
 *            [--time-budget-ms N] [--max-evals N] [--checkpoint PATH]
 *            [--arch FILE] [--workload FILE]
 *            [--trace-out FILE] [--metrics-out FILE] [--progress-ms N]
 *            [--no-bound-prune]
 *            [--subtree-cache-cap N] [--eval-cache-cap N]
 *
 * `rounds` must be a positive integer and every N a non-negative
 * integer; a malformed number or an unknown --option is an error (exit
 * status 2), so a misspelled argument never runs a silently different
 * search.
 *
 * Candidate evaluations memoize per-subtree analysis partials
 * (counters analysis.subtree_hits/misses say how much re-analysis was
 * skipped; results are bit-identical to evaluation without the
 * cache). --subtree-cache-cap / --eval-cache-cap bound the per-shard
 * entry counts of the two caches (0 = unbounded); they are the
 * search's memory bound. A cap changes hit rates only, never results:
 * an evicted entry is recomputed.
 *
 * Candidates are branch-and-bound screened by default: an admissible
 * lower bound (analysis/lowerbound.hpp) discards candidates that
 * provably cannot beat the best-so-far without paying for the full
 * analysis (counters mapper.bound_pruned / mapper.bound_evals /
 * mapper.bound_memo_hits, and the mapper.bound_tightness histogram,
 * say how often and how tightly). --no-bound-prune disables the
 * screen.
 *
 * --arch loads an architecture spec (see examples/specs/) instead of
 * the built-in Edge preset. --workload loads a workload spec instead
 * of the named attention shape. A workload declaring dims b, h, m, l
 * gets the attention mapping space; any other multi-operator workload
 * (e.g. examples/specs/fig4.wl) falls back to the workload-agnostic
 * chain space. The reference-dataflow comparison is skipped when the
 * workload's structure doesn't fit it.
 *
 * With --checkpoint, every evaluator verdict is appended to PATH, a
 * verdict log (DESIGN.md §4.7). Rerun the same command after an
 * interruption (budget hit, ^C, a crash) and the search re-runs from
 * its seed, taking logged verdicts instead of re-evaluating them: the
 * result is bit-identical to an uninterrupted run at one thread, and
 * the time budget is charged the logged search time. A log written
 * for another search, arch or workload is replaced. Set the environment
 * variable TILEFLOW_FAULT_INJECT (e.g. "throw=0.1,nan=0.05,oom=0.05,
 * seed=7") to exercise the fault-tolerant evaluation boundary: an
 * injected std::bad_alloc, like a real one, fails the candidate as a
 * tagged-infeasible "oom" (DESIGN.md §11) instead of ending the search.
 *
 * Observability (DESIGN.md §10): --trace-out enables scoped tracing
 * (as does setting TILEFLOW_TRACE) and writes a Chrome trace-event
 * JSON loadable in chrome://tracing / Perfetto. --metrics-out writes
 * the metrics registry plus the search result as JSON; either flag
 * also prints the end-of-run metrics table. --progress-ms N emits a
 * periodic progress line (best-so-far, evals/sec, cache hit rate,
 * deadline remaining) at the search's stop-polling points.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <string>

#include "arch/presets.hpp"
#include "common/logging.hpp"
#include "common/signalutil.hpp"
#include "common/telemetry.hpp"
#include "core/notation.hpp"
#include "dataflows/attention.hpp"
#include "frontend/loader.hpp"
#include "ir/shapes.hpp"
#include "mapper/mapper.hpp"

using namespace tileflow;

namespace {

/** Escape for a JSON string literal (enough for stop reasons). */
std::string
jsonEscape(const std::string& s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

/**
 * Metrics JSON: {"metrics": <registry>, "result": {...}}. The
 * "result" section mirrors MapperResult so the schema checker (and
 * CI) can assert registry totals match the search's own accounting.
 */
bool
writeMetricsJson(const std::string& path, const MapperResult& result)
{
    std::string json = "{\n\"metrics\": ";
    json += MetricsRegistry::global().toJson();
    json += ",\n\"result\": {";
    json += "\"evaluations\": " + std::to_string(result.evaluations);
    json += ", \"bound_pruned\": " + std::to_string(result.boundPruned);
    json += ", \"cache_hits\": " + std::to_string(result.cacheHits);
    json += ", \"cache_misses\": " + std::to_string(result.cacheMisses);
    json += ", \"failed_evaluations\": " +
            std::to_string(result.failedEvaluations);
    json += std::string(", \"found\": ") +
            (result.found ? "true" : "false");
    char cycles[64];
    std::snprintf(cycles, sizeof cycles, "%.17g",
                  result.found ? result.bestCycles : 0.0);
    json += std::string(", \"best_cycles\": ") + cycles;
    json += std::string(", \"timed_out\": ") +
            (result.timedOut ? "true" : "false");
    json += ", \"stop_reason\": \"" + jsonEscape(result.stopReason) +
            "\"";
    json += std::string(", \"resumed\": ") +
            (result.resumed ? "true" : "false");
    json += ", \"elapsed_ms\": " + std::to_string(result.elapsedMs);
    json += "}\n}\n";

    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    const size_t written = std::fwrite(json.data(), 1, json.size(), f);
    return written == json.size() && std::fclose(f) == 0;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string name = "Bert-S";
    std::string arch_path;
    std::string workload_path;
    std::string trace_path;
    std::string metrics_path;
    MapperConfig cfg;
    cfg.population = 8;
    cfg.tilingSamples = 30;

    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        // A number that does not parse whole, or is out of range, is
        // an error: never a silently different search.
        auto integer = [](const std::string& what, const char* text,
                          long long min, long long max) {
            char* end = nullptr;
            errno = 0;
            const long long n = std::strtoll(text, &end, 10);
            if (end == text || *end != '\0' || errno == ERANGE ||
                n < min || n > max) {
                std::fprintf(stderr,
                             "%s must be an integer in [%lld, %lld], "
                             "got '%s'\n",
                             what.c_str(), min, max, text);
                std::exit(2);
            }
            return n;
        };
        auto count = [&]() {
            return integer(arg, value(), 0,
                           std::numeric_limits<long long>::max());
        };
        if (arg == "--time-budget-ms") {
            cfg.timeBudgetMs = count();
        } else if (arg == "--max-evals") {
            cfg.maxEvaluations = count();
        } else if (arg == "--checkpoint") {
            cfg.checkpointPath = value();
        } else if (arg == "--trace-out") {
            trace_path = value();
        } else if (arg == "--metrics-out") {
            metrics_path = value();
        } else if (arg == "--progress-ms") {
            cfg.progressIntervalMs = count();
        } else if (arg == "--no-bound-prune") {
            cfg.boundPrune = false;
        } else if (arg == "--subtree-cache-cap") {
            cfg.subtreeCacheCap = size_t(count());
        } else if (arg == "--eval-cache-cap") {
            cfg.evalCacheCap = size_t(count());
        } else if (arg == "--arch") {
            arch_path = value();
        } else if (arg == "--workload") {
            workload_path = value();
        } else if (arg.compare(0, 2, "--") == 0) {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            return 2;
        } else if (positional == 0) {
            name = arg;
            ++positional;
        } else if (positional == 1) {
            cfg.rounds = int(integer("rounds", arg.c_str(), 1,
                                     std::numeric_limits<int>::max()));
            ++positional;
        } else {
            std::fprintf(stderr, "unexpected argument '%s'\n",
                         arg.c_str());
            return 2;
        }
    }

    if (!trace_path.empty())
        setTracingEnabled(true);

    // First ^C / SIGTERM: cancel cooperatively — the engines stop at
    // the next generation/batch boundary, the checkpoint is synced,
    // and the run falls through to telemetry export with best-so-far.
    // A second signal kills the process immediately.
    static CancellationToken cancel;
    installStopSignalHandlers(&cancel);
    cfg.cancel = &cancel;

    try {
        const Workload workload =
            workload_path.empty()
                ? buildAttention(attentionShape(name), false)
                : loadWorkloadSpecOrDie(workload_path);
        const ArchSpec arch = arch_path.empty()
                                  ? makeEdgeArch()
                                  : loadArchSpecOrDie(arch_path);
        const Evaluator model(workload, arch);
        const std::string label =
            workload_path.empty() ? name : workload.name();

        // Attention space when the workload declares its dims;
        // otherwise the workload-agnostic chain space, so any
        // multi-operator spec file (e.g. fig4.wl) is searchable.
        const bool attention_dims =
            workload.findDim("b") >= 0 && workload.findDim("h") >= 0 &&
            workload.findDim("m") >= 0 && workload.findDim("l") >= 0;
        const MappingSpace space = attention_dims
                                       ? makeAttentionSpace(workload, arch)
                                       : makeChainSpace(workload, arch);
        std::printf("exploring %s on %s (%s space): %lld structural "
                    "configs x %lld tilings\n",
                    label.c_str(), arch.name().c_str(),
                    attention_dims ? "attention" : "chain",
                    (long long)space.structuralSpaceSize(),
                    (long long)space.factorSpaceSize());

        const MapperResult result = exploreSpace(model, space, cfg);

        if (result.resumed)
            std::printf("resumed from checkpoint '%s'\n",
                        cfg.checkpointPath.c_str());
        if (result.timedOut)
            std::printf("stopped early (%s); reporting best-so-far\n",
                        result.stopReason.c_str());
        if (result.failedEvaluations > 0) {
            std::printf("%llu failed evaluations survived:\n",
                        (unsigned long long)result.failedEvaluations);
            for (const auto& [reason, count] : result.failureHistogram)
                std::printf("  %6llu x %s\n",
                            (unsigned long long)count, reason.c_str());
        }

        std::printf("convergence (best cycles per round):");
        for (double c : result.trace)
            std::printf(" %.3g", c);
        std::printf("\n");

        // Telemetry export runs on every exit path after the search —
        // a budget stop with no mapping yet still produces the files.
        if (!trace_path.empty() || !metrics_path.empty()) {
            std::printf("\nmetrics:\n%s",
                        MetricsRegistry::global().table().c_str());
        }
        if (!metrics_path.empty()) {
            if (writeMetricsJson(metrics_path, result))
                std::printf("metrics written to %s\n",
                            metrics_path.c_str());
            else
                std::fprintf(stderr, "failed to write metrics to %s\n",
                             metrics_path.c_str());
        }
        if (!trace_path.empty()) {
            if (writeChromeTrace(trace_path)) {
                std::printf("trace written to %s (%zu events",
                            trace_path.c_str(), traceEventCount());
                if (traceDroppedCount() > 0)
                    std::printf(", %llu dropped",
                                (unsigned long long)traceDroppedCount());
                std::printf(")\n");
            } else {
                std::fprintf(stderr, "failed to write trace to %s\n",
                             trace_path.c_str());
            }
        }

        if (!result.found) {
            std::printf("no valid mapping found\n");
            // A budget stop without a mapping yet is expected, not
            // failure.
            return result.timedOut ? 0 : 1;
        }

        std::printf("\nbest mapping: %.0f cycles after %d "
                    "evaluations\n",
                    result.bestCycles, result.evaluations);
        std::printf("%s", printNotation(result.bestTree).c_str());

        // Compare against the canned reference dataflows. A custom
        // workload may lack the op structure they assume; skip the
        // comparison rather than die after a successful search.
        for (AttentionDataflow df : {AttentionDataflow::Layerwise,
                                     AttentionDataflow::FlatHGran,
                                     AttentionDataflow::TileFlowDF}) {
            try {
                const EvalResult r = model.evaluate(
                    buildAttentionDataflow(workload, arch, df));
                if (r.valid) {
                    std::printf(
                        "reference %-12s: %.0f cycles (%.2fx of "
                        "best)\n",
                        attentionDataflowName(df).c_str(), r.cycles,
                        r.cycles / result.bestCycles);
                }
            } catch (const FatalError&) {
                std::printf("reference %-12s: not applicable to this "
                            "workload\n",
                            attentionDataflowName(df).c_str());
            } catch (const std::bad_alloc&) {
                std::printf("reference %-12s: out of memory\n",
                            attentionDataflowName(df).c_str());
            }
        }
        return 0;
    } catch (const FatalError& err) {
        std::fprintf(stderr, "%s\n", err.what());
        return 1;
    }
}
