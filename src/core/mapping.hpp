/**
 * @file
 * Tiling tables and factor utilities (the "loop tiling" axis of the 3D
 * design space, Sec. 4.1, and the MCTS encoding of Fig. 7c).
 *
 * A TilingTable records, for every workload dim and memory level, the
 * loop trip count placed at that level. Dataflow constructors read the
 * table when instantiating analysis trees; the mapper's MCTS fills it.
 */

#ifndef TILEFLOW_CORE_MAPPING_HPP
#define TILEFLOW_CORE_MAPPING_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "ir/workload.hpp"

namespace tileflow {

/** ceil(a / b) for positive integers. */
int64_t ceilDiv(int64_t a, int64_t b);

/** All positive divisors of n, ascending. */
std::vector<int64_t> divisors(int64_t n);

/**
 * Split `extent` into `parts` factors whose product covers extent
 * (product >= extent, with minimal padding), each factor as close to
 * extent^(1/parts) as divisibility allows. Returned outermost-first.
 */
std::vector<int64_t> splitBalanced(int64_t extent, int parts);

/** The same factors written to `out[0 .. parts)` (no allocation). */
void splitBalanced(int64_t extent, int parts, int64_t* out);

/** Per-(dim, level) loop trip counts. Unset entries default to 1. */
class TilingTable
{
  public:
    TilingTable() = default;
    TilingTable(size_t num_dims, int num_levels);

    void set(DimId dim, int level, int64_t factor);
    int64_t get(DimId dim, int level) const;

    /** Product of this dim's factors across all levels. */
    int64_t product(DimId dim) const;

    size_t numDims() const { return factors_.size(); }
    int numLevels() const { return numLevels_; }

    /**
     * Make the table cover the workload: for each dim, scale the
     * outermost (highest-level) factor up until the product covers the
     * dim extent; shrink factors of dims that over-cover.
     */
    void normalize(const Workload& workload);

    /**
     * Residual trip count for `dim` at `level` if all other levels
     * keep their factors: ceil(extent / product of other levels).
     */
    int64_t residual(const Workload& workload, DimId dim, int level) const;

    std::string str(const Workload& workload) const;

  private:
    std::vector<std::vector<int64_t>> factors_;
    int numLevels_ = 0;
};

} // namespace tileflow

#endif // TILEFLOW_CORE_MAPPING_HPP
