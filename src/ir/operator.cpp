#include "ir/operator.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace tileflow {

std::string
computeKindName(ComputeKind kind)
{
    return kind == ComputeKind::Matrix ? "matrix" : "vector";
}

void
Operator::addDim(DimId dim, bool is_reduction)
{
    if (usesDim(dim))
        fatal("Operator ", name_, ": dim ", dim, " added twice");
    dims_.push_back(dim);
    if (is_reduction)
        reductionDims_.push_back(dim);
}

void
Operator::addAccess(TensorAccess access)
{
    for (const auto& dim_expr : access.projection) {
        for (const auto& term : dim_expr) {
            if (!usesDim(term.dim))
                fatal("Operator ", name_, ": access uses dim ", term.dim,
                      " not in the operator's dim set");
            if (term.coeff < 0)
                fatal("Operator ", name_,
                      ": negative access coefficients are not supported");
        }
    }
    accesses_.push_back(std::move(access));
}

bool
Operator::usesDim(DimId dim) const
{
    return std::find(dims_.begin(), dims_.end(), dim) != dims_.end();
}

bool
Operator::isReduction(DimId dim) const
{
    return std::find(reductionDims_.begin(), reductionDims_.end(), dim) !=
           reductionDims_.end();
}

std::vector<TensorId>
Operator::inputTensors() const
{
    std::vector<TensorId> out;
    for (const auto& access : accesses_) {
        if (!access.isWrite)
            out.push_back(access.tensor);
    }
    return out;
}

std::vector<TensorId>
Operator::outputTensors() const
{
    std::vector<TensorId> out;
    for (const auto& access : accesses_) {
        if (access.isWrite)
            out.push_back(access.tensor);
    }
    return out;
}

HyperRect
Operator::sliceOf(const TensorAccess& access, const int64_t* base,
                  const int64_t* span) const
{
    HyperRect rect(access.projection.size());
    for (size_t d = 0; d < access.projection.size(); ++d) {
        int64_t lo = 0;
        int64_t hi = 0; // inclusive upper bound
        for (const auto& term : access.projection[d]) {
            const int64_t b = base[term.dim];
            const int64_t s = std::max<int64_t>(span[term.dim], 1);
            lo += term.coeff * b;
            hi += term.coeff * (b + s - 1);
        }
        rect.setDim(d, lo, hi + 1);
    }
    return rect;
}

} // namespace tileflow
