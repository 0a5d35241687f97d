#include "ir/workload.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace tileflow {

DimId
Workload::addDim(const std::string& name, int64_t extent)
{
    for (const auto& d : dims_) {
        if (d.name == name)
            fatal("Workload ", name_, ": duplicate dim name '", name, "'");
    }
    if (extent < 1)
        fatal("Workload ", name_, ": dim '", name, "' extent must be >= 1");
    dims_.push_back(Dim{name, extent});
    return DimId(dims_.size() - 1);
}

TensorId
Workload::addTensor(Tensor tensor)
{
    for (const auto& t : tensors_) {
        if (t.name == tensor.name)
            fatal("Workload ", name_, ": duplicate tensor name '",
                  tensor.name, "'");
    }
    if (tensor.rank() > kMaxRank)
        fatal("Workload ", name_, ": tensor '", tensor.name, "' has rank ",
              tensor.rank(), "; at most ", kMaxRank, " is supported");
    tensors_.push_back(std::move(tensor));
    producers_.push_back(-1);
    consumers_.emplace_back();
    return TensorId(tensors_.size() - 1);
}

OpId
Workload::addOp(Operator op)
{
    for (const auto& access : op.accesses()) {
        if (access.tensor < 0 || size_t(access.tensor) >= tensors_.size())
            fatal("Workload ", name_, ": op ", op.name(),
                  " references unregistered tensor id ", access.tensor);
        const auto& tensor = tensors_[size_t(access.tensor)];
        if (access.projection.size() != tensor.rank())
            fatal("Workload ", name_, ": op ", op.name(), " accesses ",
                  tensor.name, " with rank ", access.projection.size(),
                  " projection but tensor rank is ", tensor.rank());
    }
    const OpId id = OpId(ops_.size());
    for (const auto& access : op.accesses()) {
        const size_t t = size_t(access.tensor);
        if (access.isWrite) {
            if (producers_[t] < 0)
                producers_[t] = id;
        } else if (consumers_[t].empty() || consumers_[t].back() != id) {
            consumers_[t].push_back(id);
        }
    }
    ops_.push_back(std::move(op));
    return id;
}

DimId
Workload::dimId(const std::string& name) const
{
    const DimId id = findDim(name);
    if (id < 0)
        fatal("Workload ", name_, ": unknown dim '", name, "'");
    return id;
}

DimId
Workload::findDim(const std::string& name) const
{
    for (size_t i = 0; i < dims_.size(); ++i) {
        if (dims_[i].name == name)
            return DimId(i);
    }
    return -1;
}

TensorId
Workload::findTensor(const std::string& name) const
{
    for (size_t i = 0; i < tensors_.size(); ++i) {
        if (tensors_[i].name == name)
            return TensorId(i);
    }
    return -1;
}

OpId
Workload::findOp(const std::string& name) const
{
    for (size_t i = 0; i < ops_.size(); ++i) {
        if (ops_[i].name() == name)
            return OpId(i);
    }
    return -1;
}

TensorId
Workload::tensorId(const std::string& name) const
{
    const TensorId id = findTensor(name);
    if (id < 0)
        fatal("Workload ", name_, ": unknown tensor '", name, "'");
    return id;
}

OpId
Workload::opId(const std::string& name) const
{
    const OpId id = findOp(name);
    if (id < 0)
        fatal("Workload ", name_, ": unknown op '", name, "'");
    return id;
}

OpId
Workload::producerOf(TensorId tensor) const
{
    if (tensor < 0 || size_t(tensor) >= producers_.size())
        return -1;
    return producers_[size_t(tensor)];
}

const std::vector<OpId>&
Workload::consumersOf(TensorId tensor) const
{
    static const std::vector<OpId> none;
    if (tensor < 0 || size_t(tensor) >= consumers_.size())
        return none;
    return consumers_[size_t(tensor)];
}

bool
Workload::isIntermediate(TensorId tensor) const
{
    return producerOf(tensor) >= 0 && !consumersOf(tensor).empty();
}

std::vector<TensorId>
Workload::inputTensors() const
{
    std::vector<TensorId> out;
    for (size_t t = 0; t < tensors_.size(); ++t) {
        if (producerOf(TensorId(t)) < 0 &&
            !consumersOf(TensorId(t)).empty()) {
            out.push_back(TensorId(t));
        }
    }
    return out;
}

std::vector<TensorId>
Workload::outputTensors() const
{
    std::vector<TensorId> out;
    for (size_t t = 0; t < tensors_.size(); ++t) {
        if (producerOf(TensorId(t)) >= 0 &&
            consumersOf(TensorId(t)).empty()) {
            out.push_back(TensorId(t));
        }
    }
    return out;
}

double
Workload::totalOps() const
{
    double total = 0.0;
    for (const auto& op : ops_) {
        double points = 1.0;
        for (DimId d : op.dims())
            points *= double(dims_[size_t(d)].extent);
        total += points * op.opsPerPoint();
    }
    return total;
}

std::vector<int64_t>
Workload::dimExtents() const
{
    std::vector<int64_t> out(dims_.size());
    for (size_t i = 0; i < dims_.size(); ++i)
        out[i] = dims_[i].extent;
    return out;
}

} // namespace tileflow
