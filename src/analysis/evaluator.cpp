#include "analysis/evaluator.hpp"

#include <cmath>
#include <limits>
#include <new>
#include <sstream>

#include "analysis/subtreecache.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"
#include "common/telemetry.hpp"
#include "core/validate.hpp"

namespace tileflow {

namespace {

/** The counter evaluate() bumps per call:
 *  `analysis.incremental_evals` with a SubtreeCache,
 *  `analysis.evaluations` without. */
Counter&
evaluationCounter(const SubtreeCache* cache)
{
    static Counter& full =
        MetricsRegistry::global().counter("analysis.evaluations");
    static Counter& memoized =
        MetricsRegistry::global().counter("analysis.incremental_evals");
    return cache != nullptr ? memoized : full;
}

} // namespace

EvalResult
Evaluator::evaluate(const AnalysisTree& tree, SubtreeCache* cache) const
{
    // Always-on metrics (handles resolved once; ~ns per call) plus
    // per-phase spans that cost one relaxed load when tracing is off.
    static Counter& invalid =
        MetricsRegistry::global().counter("analysis.invalid_mappings");
    static Histogram& full_ns =
        MetricsRegistry::global().histogram("analysis.evaluate_ns");
    static Histogram& memoized_ns = MetricsRegistry::global().histogram(
        "analysis.incremental_evaluate_ns");
    evaluationCounter(cache).add();
    const ScopedLatency timer(cache != nullptr ? memoized_ns : full_ns);
    const TraceSpan span("evaluate", "analysis");

    EvalResult result;

    // Injected faults are decided on the tree alone, so they never
    // depend on whether a cache is in use.
    if (const FaultInjector* injector = faultInjector()) {
        switch (injector->decide(tree)) {
        case FaultKind::Throw:
            fatal("injected evaluator fault (seed ", injector->seed(),
                  ")");
        case FaultKind::Nan:
            // A poisoned "success": callers that trust `valid` without
            // checking the number would propagate NaN into their best.
            result.valid = true;
            result.cycles = std::numeric_limits<double>::quiet_NaN();
            return result;
        case FaultKind::Oom: {
            static Counter& allocFaults =
                MetricsRegistry::global().counter("mem.alloc_faults");
            allocFaults.add();
            throw std::bad_alloc();
        }
        case FaultKind::None:
            break;
        }
    }

    {
        const TraceSpan phase("evaluate.validate", "analysis");
        for (const std::string& problem : validateTree(tree, spec_)) {
            if (!startsWith(problem, "warn:")) {
                result.problems.push_back(problem);
            }
        }
        if (!result.problems.empty()) {
            invalid.add();
            return result;
        }
    }

    SubtreeSlots slots(cache, tree);

    {
        // Slice geometry is computed inside this walk (StepGeometry
        // per Tile node); the span covers both.
        const TraceSpan phase("evaluate.data_movement", "analysis");
        const DataMovementAnalyzer dm_analyzer(*workload_, *spec_);
        result.dm = dm_analyzer.analyze(tree, &slots);
    }

    {
        const TraceSpan phase("evaluate.resource", "analysis");
        const ResourceAnalyzer resource_analyzer(*workload_, *spec_);
        result.resources = resource_analyzer.analyze(
            tree, options_.enforceMemory, &slots);
    }

    if ((options_.enforceMemory && !result.resources.fitsMemory) ||
        (options_.enforceCompute && !result.resources.fitsCompute)) {
        result.problems = enforcementProblems(options_, result.resources);
        invalid.add();
        slots.flush();
        return result;
    }

    {
        const TraceSpan phase("evaluate.latency", "analysis");
        const LatencyModel latency_model(*workload_, *spec_);
        result.latency = latency_model.analyze(tree, result.dm, &slots);
        result.cycles = result.latency.cycles;
        result.utilization = result.latency.utilization;
    }

    {
        const TraceSpan phase("evaluate.energy", "analysis");
        result.energy = computeEnergy(result.dm, *spec_);
        result.energyPJ = result.energy.totalPJ();
    }

    result.valid = true;
    slots.flush();
    return result;
}

std::vector<std::string>
enforcementProblems(const EvalOptions& options,
                    const ResourceResult& resources)
{
    std::vector<std::string> problems;
    if (options.enforceMemory && !resources.fitsMemory) {
        problems.insert(problems.end(), resources.memoryViolations.begin(),
                        resources.memoryViolations.end());
    }
    if (options.enforceCompute && !resources.fitsCompute) {
        problems.insert(problems.end(),
                        resources.computeViolations.begin(),
                        resources.computeViolations.end());
    }
    return problems;
}

std::string
EvalResult::str(const ArchSpec& spec) const
{
    std::ostringstream os;
    if (!valid) {
        os << "INVALID mapping:\n";
        for (const std::string& problem : problems)
            os << "  " << problem << "\n";
        return os.str();
    }
    if (!std::isfinite(cycles) || !std::isfinite(energyPJ) ||
        !std::isfinite(utilization)) {
        // A poisoned result (injected fault, upstream NaN) must not
        // render as plausible numbers.
        os << "POISONED (non-finite) result:\n";
        os << "  cycles: " << cycles << "\n";
        os << "  energy_pj: " << energyPJ << "\n";
        os << "  utilization: " << utilization << "\n";
        return os.str();
    }
    os << "cycles: " << humanCount(cycles) << " (" << fmt(runtimeMs(spec), 3)
       << " ms @ " << spec.frequencyGHz() << " GHz)\n";
    os << "energy: " << humanCount(energyPJ / 1e6) << " uJ\n";
    os << "utilization: " << fmt(utilization * 100.0, 1) << "%\n";
    os << dm.str(spec);
    return os.str();
}

} // namespace tileflow
