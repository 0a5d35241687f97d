/**
 * @file
 * Workload: a DAG of operators over shared dims and tensors.
 */

#ifndef TILEFLOW_IR_WORKLOAD_HPP
#define TILEFLOW_IR_WORKLOAD_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "ir/operator.hpp"
#include "ir/tensor.hpp"

namespace tileflow {

/**
 * A multi-operator DNN workload.
 *
 * Operators are stored in topological (producer-before-consumer) order;
 * builders guarantee this. Tensors produced by one operator and
 * consumed by another are *intermediate* — the ones fusion dataflows
 * stage on chip.
 */
class Workload
{
  public:
    explicit Workload(std::string name) : name_(std::move(name)) {}

    const std::string& name() const { return name_; }

    /** Register an iteration dim; returns its id. Names must be unique. */
    DimId addDim(const std::string& name, int64_t extent);

    /** Register a tensor; returns its id. Names must be unique and the
     *  rank at most kMaxRank (fatal() otherwise). */
    TensorId addTensor(Tensor tensor);

    /** Append an operator (must respect topological order). */
    OpId addOp(Operator op);

    const std::vector<Dim>& dims() const { return dims_; }
    const std::vector<Tensor>& tensors() const { return tensors_; }
    const std::vector<Operator>& ops() const { return ops_; }

    const Dim& dim(DimId id) const { return dims_[size_t(id)]; }
    const Tensor& tensor(TensorId id) const { return tensors_[size_t(id)]; }
    const Operator& op(OpId id) const { return ops_[size_t(id)]; }

    size_t numOps() const { return ops_.size(); }

    /** Lookup a dim id by name; fatal() if absent. */
    DimId dimId(const std::string& name) const;

    /** Lookup a tensor id by name; fatal() if absent. */
    TensorId tensorId(const std::string& name) const;

    /** Lookup an op id by name; fatal() if absent. */
    OpId opId(const std::string& name) const;

    /** Non-throwing lookups for the diagnostic front end; -1 when the
     *  name is absent. */
    DimId findDim(const std::string& name) const;
    TensorId findTensor(const std::string& name) const;
    OpId findOp(const std::string& name) const;

    /** Id of the (first) op writing the tensor, or -1 if it is a pure
     *  input. O(1): read from a table kept by addOp. */
    OpId producerOf(TensorId tensor) const;

    /** Ids of ops reading the tensor, ascending, each listed once. */
    const std::vector<OpId>& consumersOf(TensorId tensor) const;

    /** Produced by one op and consumed by another. */
    bool isIntermediate(TensorId tensor) const;

    /** Tensors read but never written: external inputs. */
    std::vector<TensorId> inputTensors() const;

    /** Tensors written but never read by another op: external outputs. */
    std::vector<TensorId> outputTensors() const;

    /** Total arithmetic operations (MAC = 1) across all operators. */
    double totalOps() const;

    /** Extents of all dims, indexed by DimId. */
    std::vector<int64_t> dimExtents() const;

  private:
    std::string name_;
    std::vector<Dim> dims_;
    std::vector<Tensor> tensors_;
    std::vector<Operator> ops_;
    std::vector<OpId> producers_;              // per tensor
    std::vector<std::vector<OpId>> consumers_; // per tensor
};

} // namespace tileflow

#endif // TILEFLOW_IR_WORKLOAD_HPP
