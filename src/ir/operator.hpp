/**
 * @file
 * Operators: einsum-style loop nests over a workload-global dim space.
 *
 * All operators in a workload share one named dimension space, which is
 * how fusion correlates loops across operators (the paper's example in
 * Fig. 4 shares i and l between A = Q*K, B = exp(A), and C = B*V).
 * Each operator uses a subset of the dims and marks which of those are
 * reductions *for that operator*.
 */

#ifndef TILEFLOW_IR_OPERATOR_HPP
#define TILEFLOW_IR_OPERATOR_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "geom/hyperrect.hpp"
#include "ir/tensor.hpp"

namespace tileflow {

using DimId = int;
using OpId = int;

/** A named iteration dimension shared by the operators of a workload. */
struct Dim
{
    std::string name;
    int64_t extent = 1;
};

/** One affine term `coeff * dim` in a tensor-subscript expression. */
struct AccessTerm
{
    DimId dim = -1;
    int64_t coeff = 1;
};

/**
 * How one operator touches one tensor.
 *
 * `projection[d]` gives the affine expression for tensor dimension d as
 * a sum of AccessTerms (all coefficients non-negative, which holds for
 * the dense DNN operators modeled here, and keeps data slices
 * rectangular — see geom/hyperrect.hpp).
 */
struct TensorAccess
{
    TensorId tensor = -1;
    bool isWrite = false;
    /** Written with accumulation (+=), i.e., read-modify-write. */
    bool isUpdate = false;
    std::vector<std::vector<AccessTerm>> projection;
};

/** Which PE array a leaf tile of this operator occupies. */
enum class ComputeKind { Matrix, Vector };

std::string computeKindName(ComputeKind kind);

/**
 * One operator of a workload: a perfect loop nest over a dim subset
 * with affine tensor accesses.
 */
class Operator
{
  public:
    Operator(std::string name, ComputeKind kind, double ops_per_point = 1.0)
        : name_(std::move(name)), kind_(kind), opsPerPoint_(ops_per_point)
    {
    }

    const std::string& name() const { return name_; }
    ComputeKind kind() const { return kind_; }

    /** Arithmetic operations per iteration point (a MAC counts as 1). */
    double opsPerPoint() const { return opsPerPoint_; }

    /** Dims this operator iterates over (workload dim ids). */
    const std::vector<DimId>& dims() const { return dims_; }

    /** The subset of dims() reduced by this operator. */
    const std::vector<DimId>& reductionDims() const { return reductionDims_; }

    const std::vector<TensorAccess>& accesses() const { return accesses_; }

    void addDim(DimId dim, bool is_reduction);
    void addAccess(TensorAccess access);

    bool usesDim(DimId dim) const;
    bool isReduction(DimId dim) const;

    /** All tensors read (not written) by this operator. */
    std::vector<TensorId> inputTensors() const;

    /** All tensors written by this operator. */
    std::vector<TensorId> outputTensors() const;

    /**
     * Data slice touched through `access` when each dim d spans
     * [base[d], base[d] + span[d]). base/span are indexed by workload
     * DimId; dims the operator does not use are ignored.
     */
    HyperRect sliceOf(const TensorAccess& access, const int64_t* base,
                      const int64_t* span) const;

    HyperRect
    sliceOf(const TensorAccess& access, const std::vector<int64_t>& base,
            const std::vector<int64_t>& span) const
    {
        return sliceOf(access, base.data(), span.data());
    }

  private:
    std::string name_;
    ComputeKind kind_;
    double opsPerPoint_;
    std::vector<DimId> dims_;
    std::vector<DimId> reductionDims_;
    std::vector<TensorAccess> accesses_;
};

} // namespace tileflow

#endif // TILEFLOW_IR_OPERATOR_HPP
