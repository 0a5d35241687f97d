/**
 * @file
 * Deterministic, seeded fault injection for Evaluator::evaluate —
 * test/bench-only machinery used to prove the mapper's evaluation
 * boundary survives throwing, NaN-poisoned and out-of-memory
 * evaluations.
 *
 * The decision for a mapping is a pure function of (seed, structural
 * hash of the tree): the same candidate faults the same way on every
 * thread, every retry and every resumed run, which keeps fault-
 * injected searches bit-identical across thread counts — the same
 * contract the rest of the mapper honors. The spec loaders draw the
 * `oom` kind on a hash of the input text instead, so the same spec
 * faults the same way on every load.
 *
 * Enable programmatically with Evaluator::setFaultInjector, or for
 * whole binaries via the TILEFLOW_FAULT_INJECT environment variable:
 *
 *     TILEFLOW_FAULT_INJECT="throw=0.1,nan=0.05,oom=0.05,seed=7"
 *
 * (fractions in [0,1]; omitted keys default to 0 / seed 1). The kinds
 * take consecutive slices of one uniform draw — throw, then nan, then
 * oom — so adding `oom` leaves the throw and NaN sets unchanged.
 */

#ifndef TILEFLOW_ANALYSIS_FAULTINJECT_HPP
#define TILEFLOW_ANALYSIS_FAULTINJECT_HPP

#include <cstdint>
#include <memory>
#include <string>

namespace tileflow {

class AnalysisTree;

/** What an injected fault does to one evaluate() call. */
enum class FaultKind
{
    None,  ///< evaluate normally
    Throw, ///< throw FatalError("injected evaluator fault ...")
    Nan,   ///< return a "valid" result whose cycles are NaN
    Oom,   ///< throw std::bad_alloc
};

class FaultInjector
{
  public:
    /** Fractions are clamped to [0,1]; their sum is capped at 1
     *  (throw first, then nan, then oom). */
    FaultInjector(double throw_fraction, double nan_fraction,
                  uint64_t seed, double oom_fraction = 0.0);

    /**
     * Parse TILEFLOW_FAULT_INJECT; null when unset or when every
     * fraction is zero (injection disabled).
     */
    static std::shared_ptr<const FaultInjector> fromEnv();

    /** The process-wide injector, parsed from TILEFLOW_FAULT_INJECT
     *  once at first use (null when disabled). */
    static const FaultInjector* env();

    /** Decision for a mapping, keyed on its structural hash. */
    FaultKind decide(const AnalysisTree& tree) const;

    /** Decision for a raw key (exposed for tests). */
    FaultKind decideKey(uint64_t key) const;

    /** FNV-1a over the tree's structural dump — stable across runs. */
    static uint64_t treeKey(const AnalysisTree& tree);

    /** FNV-1a over raw text — the spec loaders' key. */
    static uint64_t textKey(const std::string& text);

    double throwFraction() const { return throwFraction_; }
    double nanFraction() const { return nanFraction_; }
    double oomFraction() const { return oomFraction_; }
    uint64_t seed() const { return seed_; }

  private:
    double throwFraction_;
    double nanFraction_;
    double oomFraction_;
    uint64_t seed_;
};

} // namespace tileflow

#endif // TILEFLOW_ANALYSIS_FAULTINJECT_HPP
