/**
 * @file
 * Shared helpers for dataflow tree construction: loop-list assembly
 * and a generic single-operator tile hierarchy (the building block of
 * the Layerwise dataflows and the Timeloop-baseline validation).
 */

#ifndef TILEFLOW_DATAFLOWS_BUILDER_UTIL_HPP
#define TILEFLOW_DATAFLOWS_BUILDER_UTIL_HPP

#include <memory>
#include <span>

#include "arch/arch.hpp"
#include "core/tile.hpp"
#include "ir/workload.hpp"

namespace tileflow {

/** Append a loop unless its extent is 1 (keeps trees readable). */
void appendLoop(LoopList& loops, DimId dim, int64_t extent,
                LoopKind kind);

/**
 * Build a self-contained tile hierarchy for a single operator from
 * memory level `top_level` down to L0:
 *
 *  - the last one (vector) or two (matrix) parallel dims map spatially
 *    onto the PE array at L0;
 *  - reduction dims get a bounded temporal factor at L0, the rest
 *    rises through the hierarchy;
 *  - each level's spatial fanout is spent greedily on the parallel
 *    dims with the most remaining iterations;
 *  - leftover trip counts are split balanced across the temporal
 *    levels.
 *
 * For subtrees nested under already-tiled ancestors,
 * `outer_coverage[dim]` is the trip count the enclosing loops cover,
 * so this subtree sizes itself to the residual
 * ceilDiv(extent, outer_coverage) per dim instead of the full extent.
 * Dims past its end (all of them, by default) have no outer coverage.
 */
std::unique_ptr<Node>
buildSingleOpSubtree(const Workload& workload, const ArchSpec& spec,
                     OpId op, int top_level,
                     std::span<const int64_t> outer_coverage = {});

} // namespace tileflow

#endif // TILEFLOW_DATAFLOWS_BUILDER_UTIL_HPP
