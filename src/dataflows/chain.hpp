/**
 * @file
 * Generic operator-chain fusion dataflow: a workload-agnostic tree
 * builder for multi-operator workloads that the specialized attention
 * and conv-chain builders don't cover (e.g. the Fig. 4 running
 * example, or any spec-file workload with its own dim names).
 *
 * The fused form tiles the dims shared across operators at the DRAM
 * level, stages every operator under one fusion scope (Pipe or Shar),
 * and sizes each operator's private subtree to the residual trip
 * counts via buildSingleOpSubtree's outer-coverage variant. The
 * unfused form is the standard Layerwise mapping.
 */

#ifndef TILEFLOW_DATAFLOWS_CHAIN_HPP
#define TILEFLOW_DATAFLOWS_CHAIN_HPP

#include <span>
#include <vector>

#include "arch/arch.hpp"
#include "core/tree.hpp"

namespace tileflow {

/** Free parameters of a generic fused chain tree. */
struct ChainGrain
{
    /** Dims tiled temporally at the DRAM root, with their trip
     *  counts; parallel views of the caller's arrays (typically
     *  chainSharedDims() and a choice vector's tail). */
    std::span<const DimId> dims;
    std::span<const int64_t> factors;

    /** Split the first (largest) shared dim spatially across cores. */
    bool spatialCores = true;

    /** Pipe vs Shar fusion scope. */
    bool pipeline = false;

    /** false -> Layerwise (one subtree per op, nothing shared). */
    bool fused = true;
};

/**
 * Dims eligible for shared tiling at a fused root: used by at least
 * two operators, and not a reduction dim of any operator that
 * produces an intermediate tensor (tiling those in a fusing ancestor
 * serializes the pipeline; see validate.cpp V305). Sorted by extent,
 * largest first, capped at four dims to bound the search space.
 */
std::vector<DimId> chainSharedDims(const Workload& workload);

/** Build the tree for a grain; checkTree-clean for any grain whose
 *  factors come from factorMenu of the dims' extents. */
AnalysisTree buildChainTree(const Workload& workload,
                            const ArchSpec& spec,
                            const ChainGrain& grain);

} // namespace tileflow

#endif // TILEFLOW_DATAFLOWS_CHAIN_HPP
