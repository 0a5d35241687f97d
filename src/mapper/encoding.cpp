#include "mapper/encoding.hpp"

#include "common/logging.hpp"
#include "dataflows/attention.hpp"
#include "dataflows/chain.hpp"
#include "dataflows/convchain.hpp"

namespace tileflow {

std::vector<size_t>
MappingSpace::structuralKnobs() const
{
    std::vector<size_t> out;
    for (size_t i = 0; i < knobs_.size(); ++i) {
        if (knobs_[i].structural)
            out.push_back(i);
    }
    return out;
}

std::vector<size_t>
MappingSpace::factorKnobs() const
{
    std::vector<size_t> out;
    for (size_t i = 0; i < knobs_.size(); ++i) {
        if (!knobs_[i].structural)
            out.push_back(i);
    }
    return out;
}

std::vector<int64_t>
MappingSpace::defaultChoices() const
{
    std::vector<int64_t> out;
    for (const Knob& knob : knobs_)
        out.push_back(knob.choices.front());
    return out;
}

int64_t
MappingSpace::structuralSpaceSize() const
{
    int64_t size = 1;
    for (const Knob& knob : knobs_) {
        if (knob.structural)
            size *= int64_t(knob.choices.size());
    }
    return size;
}

int64_t
MappingSpace::factorSpaceSize() const
{
    int64_t size = 1;
    for (const Knob& knob : knobs_) {
        if (!knob.structural)
            size *= int64_t(knob.choices.size());
    }
    return size;
}

std::vector<int64_t>
factorMenu(int64_t extent)
{
    std::vector<int64_t> menu;
    for (int64_t f = 1; f < extent; f *= 2)
        menu.push_back(f);
    menu.push_back(extent);
    return menu;
}

MappingSpace
makeAttentionSpace(const Workload& workload, const ArchSpec& spec)
{
    const int64_t B = workload.dim(workload.dimId("b")).extent;
    const int64_t H = workload.dim(workload.dimId("h")).extent;
    const int64_t M = workload.dim(workload.dimId("m")).extent;
    const int64_t L = workload.dim(workload.dimId("l")).extent;

    std::vector<Knob> knobs = {
        {"fused", {1, 0}, true},
        {"pipeAll", {0, 1}, true},
        {"spatialCores", {1, 0}, true},
        {"tB", factorMenu(B), false},
        {"tH", factorMenu(H), false},
        {"tM", factorMenu(M), false},
        {"tL", factorMenu(L), false},
    };

    auto builder = [&workload, &spec](const std::vector<int64_t>& c) {
        AttentionGrain grain;
        grain.fused = c[0] != 0;
        grain.pipeAll = c[1] != 0;
        grain.spatialCores = c[2] != 0;
        grain.tB = c[3];
        grain.tH = c[4];
        grain.tM = c[5];
        grain.tL = c[6];
        return buildAttentionTree(workload, spec, grain);
    };
    return MappingSpace(std::move(knobs), builder);
}

MappingSpace
makeAttentionTilingSpace(const Workload& workload, const ArchSpec& spec)
{
    const int64_t B = workload.dim(workload.dimId("b")).extent;
    const int64_t H = workload.dim(workload.dimId("h")).extent;
    const int64_t M = workload.dim(workload.dimId("m")).extent;
    const int64_t L = workload.dim(workload.dimId("l")).extent;

    std::vector<Knob> knobs = {
        {"tB", factorMenu(B), false},
        {"tH", factorMenu(H), false},
        {"tM", factorMenu(M), false},
        {"tL", factorMenu(L), false},
    };

    auto builder = [&workload, &spec](const std::vector<int64_t>& c) {
        AttentionGrain grain;
        grain.fused = true;
        grain.pipeAll = true;
        grain.spatialCores = true;
        grain.tB = c[0];
        grain.tH = c[1];
        grain.tM = c[2];
        grain.tL = c[3];
        return buildAttentionTree(workload, spec, grain);
    };
    return MappingSpace(std::move(knobs), builder);
}

MappingSpace
makeConvChainSpace(const Workload& workload, const ArchSpec& spec)
{
    const int64_t H = workload.dim(workload.dimId("h")).extent;
    const int64_t W = workload.dim(workload.dimId("w")).extent;
    const int64_t L = workload.dim(workload.dimId("l")).extent;

    std::vector<Knob> knobs = {
        {"fused", {1, 0}, true},
        {"pipeline", {1, 0}, true},
        {"tH", factorMenu(H), false},
        {"tW", factorMenu(W), false},
        {"tL", factorMenu(L), false},
    };

    auto builder = [&workload, &spec](const std::vector<int64_t>& c) {
        ConvChainGrain grain;
        grain.fused = c[0] != 0;
        grain.pipeline = c[1] != 0;
        grain.tH = c[2];
        grain.tW = c[3];
        grain.tL = c[4];
        return buildConvChainTree(workload, spec, grain);
    };
    return MappingSpace(std::move(knobs), builder);
}

MappingSpace
makeChainSpace(const Workload& workload, const ArchSpec& spec)
{
    const std::vector<DimId> shared = chainSharedDims(workload);
    if (shared.empty())
        fatal("makeChainSpace: workload '", workload.name(),
              "' has no dim shared across operators that is safe to "
              "tile at the root");

    std::vector<Knob> knobs = {
        {"fused", {1, 0}, true},
        {"pipeline", {1, 0}, true},
        {"spatialCores", {1, 0}, true},
    };
    for (DimId d : shared) {
        knobs.push_back({"t" + workload.dim(d).name,
                         factorMenu(workload.dim(d).extent), false});
    }

    auto builder = [&workload, &spec,
                    shared](const std::vector<int64_t>& c) {
        ChainGrain grain;
        grain.fused = c[0] != 0;
        grain.pipeline = c[1] != 0;
        grain.spatialCores = c[2] != 0;
        grain.dims = shared;
        grain.factors = std::span<const int64_t>(c).subspan(3);
        return buildChainTree(workload, spec, grain);
    };
    return MappingSpace(std::move(knobs), builder);
}

} // namespace tileflow
