/**
 * @file
 * Evaluator: the one-call facade tying together validation, data
 * movement, resource usage, latency and energy (Fig. 3's "tree-based
 * analysis" box). This is the main entry point of the public API.
 *
 * There is one evaluation body. Given a SubtreeCache it memoizes each
 * Tile node's analysis partials (analysis/subtreecache.hpp); without
 * one it computes them all. The result is bit-identical with or
 * without a cache.
 */

#ifndef TILEFLOW_ANALYSIS_EVALUATOR_HPP
#define TILEFLOW_ANALYSIS_EVALUATOR_HPP

#include <string>
#include <vector>

#include <memory>

#include "analysis/datamovement.hpp"
#include "analysis/energy.hpp"
#include "analysis/faultinject.hpp"
#include "analysis/latency.hpp"
#include "analysis/resource.hpp"
#include "arch/arch.hpp"
#include "core/tree.hpp"

namespace tileflow {

/** Evaluation knobs. */
struct EvalOptions
{
    /** Reject mappings whose footprints exceed buffer capacities. */
    bool enforceMemory = true;

    /** Reject mappings whose PE / sub-core demand exceeds the spec. */
    bool enforceCompute = true;
};

/** Everything the model can say about one mapping. */
struct EvalResult
{
    /** False if the tree is malformed or violates enforced limits. */
    bool valid = false;

    /** Validation / resource problems, if any. */
    std::vector<std::string> problems;

    double cycles = 0.0;
    double energyPJ = 0.0;
    double utilization = 0.0;

    DataMovementResult dm;
    ResourceResult resources;
    LatencyResult latency;
    EnergyBreakdown energy;

    /** Runtime in milliseconds at the spec's frequency. */
    double runtimeMs(const ArchSpec& spec) const
    {
        return cycles / (spec.frequencyGHz() * 1e6);
    }

    std::string str(const ArchSpec& spec) const;
};

/**
 * The problems an enforcement failure reports: only the violation
 * class(es) whose enforcement actually gated the result. A mapping
 * rejected for a memory overflow under enforceCompute = false must
 * not drag unrelated (unenforced) compute violations into
 * EvalResult::problems, and vice versa.
 */
std::vector<std::string>
enforcementProblems(const EvalOptions& options,
                    const ResourceResult& resources);

class SubtreeCache;

/**
 * The performance model of TileFlow.
 *
 * Thread-safety: evaluate() is reentrant. It holds no mutable state —
 * the workload/spec/options members are read-only after construction
 * and every analyzer is constructed locally per call — so one
 * Evaluator may serve concurrent evaluate() calls from the mapper's
 * thread pool without synchronization. The fault injector, when set,
 * is likewise read-only and its decisions are pure.
 */
class Evaluator
{
  public:
    Evaluator(const Workload& workload, const ArchSpec& spec,
              EvalOptions options = {})
        : workload_(&workload),
          spec_(&spec),
          options_(options)
    {
    }

    const Workload& workload() const { return *workload_; }
    const ArchSpec& spec() const { return *spec_; }
    const EvalOptions& options() const { return options_; }

    /**
     * Test/bench hook: make a deterministic, seeded fraction of
     * evaluate() calls throw FatalError, return NaN cycles or throw
     * std::bad_alloc (see faultinject.hpp). nullptr disables. The
     * process-wide TILEFLOW_FAULT_INJECT injector is the fallback
     * when none is set programmatically.
     */
    void
    setFaultInjector(std::shared_ptr<const FaultInjector> injector)
    {
        injector_ = std::move(injector);
    }

    const FaultInjector*
    faultInjector() const
    {
        return injector_ ? injector_.get() : FaultInjector::env();
    }

    /**
     * Evaluate one mapping end to end: fault hooks, validation, data
     * movement, resource (an enforcement failure returns here),
     * latency, energy. `cache` (nullable, internally synchronized)
     * memoizes per-Tile-node partials; the result is bit-identical
     * with or without it. Telemetry: with a cache the call counts in
     * `analysis.incremental_evals` / `analysis.incremental_evaluate_ns`,
     * without one in `analysis.evaluations` / `analysis.evaluate_ns`.
     */
    EvalResult evaluate(const AnalysisTree& tree,
                        SubtreeCache* cache = nullptr) const;

  private:
    const Workload* workload_;
    const ArchSpec* spec_;
    EvalOptions options_;
    std::shared_ptr<const FaultInjector> injector_;
};

} // namespace tileflow

#endif // TILEFLOW_ANALYSIS_EVALUATOR_HPP
