/**
 * @file
 * IncrementalEvaluator: an (Evaluator, SubtreeCache) pair.
 *
 * Search engines mutate one knob of a mapping at a time, so successive
 * evaluations share most of their tree. Evaluator::evaluate(tree,
 * &cache) looks each Tile node's analysis partials (data-movement
 * traffic, step footprint, per-execution latencies) up under
 * (subtreeHash, contextSignature) before recomputing them; see
 * analysis/subtreecache.hpp. This class only binds one evaluator to
 * one cache for callers that pass the pair around as a unit.
 *
 * Bit-identity contract: evaluate() returns an EvalResult equal bit
 * for bit to base().evaluate() on the same tree, because both run the
 * same Evaluator::evaluate body, with or without a cache (the tier-1
 * property test tests/test_incremental.cpp asserts this across every
 * oracle fuzz family).
 *
 * Telemetry: evaluate() with a cache bumps `analysis.incremental_evals`
 * and times itself in `analysis.incremental_evaluate_ns` (without one,
 * `analysis.evaluations` and `analysis.evaluate_ns`); cache traffic
 * lands in the `analysis.subtree_*` counters.
 */

#ifndef TILEFLOW_ANALYSIS_INCREMENTAL_HPP
#define TILEFLOW_ANALYSIS_INCREMENTAL_HPP

#include "analysis/evaluator.hpp"
#include "analysis/subtreecache.hpp"

namespace tileflow {

/**
 * Thread-safety: evaluate() is reentrant, like Evaluator's; the shared
 * SubtreeCache is internally synchronized. One IncrementalEvaluator
 * may serve the mapper's whole thread pool.
 */
class IncrementalEvaluator
{
  public:
    IncrementalEvaluator(const Evaluator& base, SubtreeCache& cache)
        : base_(&base), cache_(&cache)
    {
    }

    const Evaluator& base() const { return *base_; }
    SubtreeCache& cache() const { return *cache_; }

    /** Evaluate one mapping; bit-identical to base().evaluate(tree). */
    EvalResult evaluate(const AnalysisTree& tree) const
    {
        return base_->evaluate(tree, cache_);
    }

  private:
    const Evaluator* base_;
    SubtreeCache* cache_;
};

} // namespace tileflow

#endif // TILEFLOW_ANALYSIS_INCREMENTAL_HPP
