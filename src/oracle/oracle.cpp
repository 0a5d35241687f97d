#include "oracle/oracle.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "analysis/childgroup.hpp"
#include "analysis/slice.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"

namespace tileflow {

namespace {

/** One temporal loop on the path to the node: an ancestor's or the
 *  node's own. `stride` is the dim-space progress of one advance. */
struct PathLoop
{
    DimId dim = -1;
    int64_t extent = 1;
    int64_t stride = 0;
    bool ofNode = false;
    size_t nodePos = 0; // position into the node's temporal loop list
};

/**
 * Dense element store for one tensor during one node's interpretation:
 * a bitmap over the bounding box of every slice the node's leaves can
 * touch. The box is computed from the first and last step only, which
 * is exact because slice anchors grow monotonically with loop indices
 * (access coefficients are non-negative) and spans are constant.
 */
struct TensorSpace
{
    HyperRect bounds;
    std::vector<int64_t> strides; // per tensor dim, row-major
    int64_t volume = 0;

    void init(const HyperRect& box)
    {
        bounds = box;
        volume = bounds.empty() ? 0 : bounds.volume();
        strides.assign(bounds.rank(), 1);
        for (size_t d = bounds.rank(); d-- > 1;)
            strides[d - 1] = strides[d] * bounds.extent(d);
    }
};

/** Exact resident/dirty element sets of one (child, tensor) buffer. */
struct Buffer
{
    std::vector<uint8_t> resident;
    std::vector<uint8_t> dirty;
    int64_t dirtyCount = 0;

    explicit Buffer(int64_t volume)
        : resident(size_t(volume), 0), dirty(size_t(volume), 0)
    {
    }
};

using BufferMap = std::map<std::pair<int, TensorId>, Buffer>;

/** Apply `fn(linear_index)` to every element of `rect`, which must lie
 *  inside the space's bounds. */
template <typename Fn>
void
forEachElement(const TensorSpace& space, const HyperRect& rect, Fn&& fn)
{
    if (rect.empty())
        return;
    const size_t rank = rect.rank();
    std::vector<int64_t> coord(rank);
    for (size_t d = 0; d < rank; ++d)
        coord[d] = rect.begin(d);
    while (true) {
        int64_t idx = 0;
        for (size_t d = 0; d < rank; ++d)
            idx += (coord[d] - space.bounds.begin(d)) * space.strides[d];
        // The innermost dim is contiguous in the bitmap.
        const int64_t run = rect.extent(rank - 1);
        for (int64_t i = 0; i < run; ++i)
            fn(idx + i);
        size_t d = rank - 1;
        while (true) {
            if (d == 0)
                return;
            --d;
            if (++coord[d] < rect.end(d))
                break;
            coord[d] = rect.begin(d);
        }
    }
}

/** Set every element of `rect` in `bits`; returns how many were new. */
int64_t
countAndSet(const TensorSpace& space, const HyperRect& rect,
            std::vector<uint8_t>& bits)
{
    int64_t added = 0;
    forEachElement(space, rect, [&](int64_t i) {
        added += 1 - bits[size_t(i)];
        bits[size_t(i)] = 1;
    });
    return added;
}

/** Interpreter state for one Tile node. */
struct TileInterp
{
    const Workload& workload;
    const OracleLimits& limits;
    const Node* node;
    StepGeometry geom;   // traffic slices (node spatial included)
    StepGeometry fpGeom; // footprint slices (per child-buffer instance)
    ChildGroup group;
    std::vector<PathLoop> loops; // outer-first: ancestors, then the node
    double spatialMult = 1.0;    // ancestor spatial instances
    std::map<TensorId, TensorSpace> spaces;
    BufferMap buffers;

    double load = 0.0;
    double store = 0.0;
    std::vector<double> childFill;
    std::vector<double> childDrain;
    int64_t peakFootprint = 0;

    TileInterp(const Workload& wl, const OracleLimits& lim,
               const Node* tile)
        : workload(wl), limits(lim), node(tile), geom(wl, tile),
          fpGeom(wl, tile, /*include_node_spatial=*/tile->memLevel() == 0)
    {
        childGroupOf(tile, group);
        childFill.assign(group.children.size(), 0.0);
        childDrain.assign(group.children.size(), 0.0);

        // Ancestor temporal loops, outermost tile first; one advance of
        // an ancestor loop shifts the whole subtree by that ancestor's
        // dim unit (the convention of StepGeometry::slice).
        std::vector<const Node*> ancestors;
        for (const Node* a = tile->parent(); a != nullptr; a = a->parent()) {
            if (a->isTile())
                ancestors.push_back(a);
        }
        std::reverse(ancestors.begin(), ancestors.end());
        for (const Node* a : ancestors) {
            spatialMult *= double(a->spatialExtent());
            const StepGeometry ag(wl, a);
            for (const Loop& loop : ag.temporalLoops()) {
                loops.push_back(PathLoop{loop.dim, loop.extent,
                                         ag.unit(loop.dim), false, 0});
            }
        }
        const auto& own = geom.temporalLoops();
        for (size_t k = 0; k < own.size(); ++k) {
            loops.push_back(
                PathLoop{own[k].dim, own[k].extent, 0, true, k});
        }

        int64_t steps = 1;
        for (const PathLoop& loop : loops) {
            steps *= loop.extent;
            if (steps > limits.maxSteps)
                fatal("ConcreteOracle: tile at L", tile->memLevel(),
                      " enumerates more than ", limits.maxSteps,
                      " steps; shrink the problem for the oracle");
        }
        computeSpaces();
    }

    void computeSpaces()
    {
        const size_t num_dims = workload.dims().size();
        std::vector<int64_t> first_idx(geom.temporalLoops().size(), 0);
        const std::vector<int64_t> last_idx = geom.lastStep();
        std::vector<int64_t> zero_base(num_dims, 0);
        std::vector<int64_t> last_base(num_dims, 0);
        for (const PathLoop& loop : loops) {
            if (!loop.ofNode)
                last_base[size_t(loop.dim)] +=
                    (loop.extent - 1) * loop.stride;
        }

        std::map<TensorId, HyperRect> bounds;
        for (const ChildInfo& child : group.children) {
            if (child.passthrough)
                continue;
            for (const Node* leaf : child.leaves) {
                const Operator& op = workload.op(leaf->op());
                for (const auto& access : op.accesses()) {
                    const HyperRect lo =
                        geom.slice(leaf, access, first_idx, zero_base);
                    const HyperRect hi =
                        geom.slice(leaf, access, last_idx, last_base);
                    if (lo.volume() > limits.maxSliceElements)
                        fatal("ConcreteOracle: slice of tensor '",
                              workload.tensor(access.tensor).name,
                              "' has ", lo.volume(),
                              " elements, above the oracle limit ",
                              limits.maxSliceElements);
                    const HyperRect both = lo.boundingUnion(hi);
                    auto it = bounds.find(access.tensor);
                    if (it == bounds.end())
                        bounds[access.tensor] = both;
                    else
                        it->second = it->second.boundingUnion(both);
                }
            }
        }
        for (const auto& [tensor, rect] : bounds)
            spaces[tensor].init(rect);
    }

    Buffer& bufferOf(int child, TensorId tensor)
    {
        auto key = std::make_pair(child, tensor);
        auto it = buffers.find(key);
        if (it == buffers.end()) {
            it = buffers.emplace(key, Buffer(spaces.at(tensor).volume))
                     .first;
        }
        return it->second;
    }

    double elemBytes(TensorId tensor) const
    {
        return double(dataTypeBytes(workload.tensor(tensor).dtype));
    }

    /** Write a buffer's dirty elements upward and clear them. */
    void drainDirty(int child, TensorId tensor, Buffer& buf)
    {
        if (buf.dirtyCount == 0)
            return;
        const double bytes = double(buf.dirtyCount) * elemBytes(tensor);
        store += bytes;
        childDrain[size_t(child)] += bytes;
        std::fill(buf.dirty.begin(), buf.dirty.end(), uint8_t(0));
        buf.dirtyCount = 0;
    }

    /** Seq child switch: child j takes over the buffer. Residents of
     *  other children move to j if j uses the tensor (dirty data keeps
     *  its flag), otherwise they are displaced — dirty bytes drain. */
    void seqSwitch(size_t j, const ChildInfo& child)
    {
        for (auto it = buffers.begin(); it != buffers.end();) {
            if (it->first.first == int(j)) {
                ++it;
                continue;
            }
            const TensorId tensor = it->first.second;
            bool used_by_j = false;
            for (const Node* leaf : child.leaves) {
                const Operator& op = workload.op(leaf->op());
                for (const auto& access : op.accesses())
                    used_by_j = used_by_j || access.tensor == tensor;
            }
            if (used_by_j) {
                Buffer& dst = bufferOf(int(j), tensor);
                Buffer& src = it->second;
                for (size_t e = 0; e < dst.resident.size(); ++e) {
                    dst.resident[e] |= src.resident[e];
                    if (src.dirty[e] && !dst.dirty[e]) {
                        dst.dirty[e] = 1;
                        ++dst.dirtyCount;
                    }
                }
            } else {
                drainDirty(it->first.first, tensor, it->second);
            }
            it = buffers.erase(it);
        }
    }

    /** Exact bytes the children stage at this step (the capacity
     *  quantity of the resource analysis, per buffer instance). */
    int64_t stepFootprint(const std::vector<int64_t>& node_idx,
                          const std::vector<int64_t>& dim_base) const
    {
        int64_t total = 0;
        for (const ChildInfo& child : group.children) {
            if (child.passthrough)
                continue;
            std::map<TensorId, std::vector<HyperRect>> per_tensor;
            for (const Node* leaf : child.leaves) {
                const Operator& op = workload.op(leaf->op());
                for (const auto& access : op.accesses()) {
                    if (producedInside(workload, access.tensor, child) &&
                        !escapesChild(workload, access.tensor, child)) {
                        continue; // staged entirely below this level
                    }
                    per_tensor[access.tensor].push_back(
                        fpGeom.slice(leaf, access, node_idx, dim_base));
                }
            }
            int64_t child_bytes = 0;
            for (const auto& [tensor, rects] : per_tensor) {
                child_bytes +=
                    unionVolume(rects) *
                    dataTypeBytes(workload.tensor(tensor).dtype);
            }
            if (group.binding == ScopeKind::Seq &&
                group.children.size() > 1) {
                total = std::max(total, child_bytes);
            } else {
                total += child_bytes;
            }
        }
        return total;
    }

    /** Execute one concrete temporal step. */
    void step(const std::vector<int64_t>& node_idx,
              const std::vector<int64_t>& dim_base)
    {
        peakFootprint =
            std::max(peakFootprint, stepFootprint(node_idx, dim_base));

        for (size_t j = 0; j < group.children.size(); ++j) {
            const ChildInfo& child = group.children[j];
            if (child.passthrough)
                continue;
            if (group.binding == ScopeKind::Seq &&
                group.children.size() > 1) {
                seqSwitch(j, child);
            }

            for (const Node* leaf : child.leaves) {
                const Operator& op = workload.op(leaf->op());
                for (const auto& access : op.accesses()) {
                    const TensorId tensor = access.tensor;
                    const HyperRect slice =
                        geom.slice(leaf, access, node_idx, dim_base);
                    if (slice.empty())
                        continue;
                    const TensorSpace& space = spaces.at(tensor);

                    if (!access.isWrite) {
                        // Locally produced data never crosses this
                        // level (the hand-off happened below).
                        if (producedInside(workload, tensor, child))
                            continue;
                        Buffer& buf = bufferOf(int(j), tensor);
                        const int64_t fetched =
                            countAndSet(space, slice, buf.resident);
                        const double bytes =
                            double(fetched) * elemBytes(tensor);
                        load += bytes;
                        childFill[j] += bytes;
                    } else {
                        Buffer& buf = bufferOf(int(j), tensor);
                        countAndSet(space, slice, buf.resident);
                        buf.dirtyCount +=
                            countAndSet(space, slice, buf.dirty);
                    }
                }
            }
        }
    }

    /** Final write-back: whatever is still dirty drains upward iff the
     *  tensor escapes the subtree of the child holding it. */
    void finish()
    {
        for (auto& [key, buf] : buffers) {
            const ChildInfo& child = group.children[size_t(key.first)];
            if (escapesChild(workload, key.second, child))
                drainDirty(key.first, key.second, buf);
        }
    }

    void run(OracleResult& result)
    {
        const size_t num_dims = workload.dims().size();
        const size_t num_node_loops = geom.temporalLoops().size();
        std::vector<int64_t> idx(loops.size(), 0);
        std::vector<int64_t> node_idx(num_node_loops, 0);
        std::vector<int64_t> dim_base(num_dims, 0);

        bool done = false;
        while (!done) {
            std::fill(dim_base.begin(), dim_base.end(), 0);
            for (size_t k = 0; k < loops.size(); ++k) {
                if (loops[k].ofNode)
                    node_idx[loops[k].nodePos] = idx[k];
                else
                    dim_base[size_t(loops[k].dim)] +=
                        idx[k] * loops[k].stride;
            }
            step(node_idx, dim_base);

            done = true;
            for (size_t k = loops.size(); k-- > 0;) {
                if (++idx[k] < loops[k].extent) {
                    done = false;
                    break;
                }
                idx[k] = 0;
            }
        }
        finish();

        // One ancestor-spatial instance was interpreted; the others are
        // translated copies with identical traffic.
        const double executions = double(executionCount(node));
        const double total_load = load * spatialMult;
        const double total_store = store * spatialMult;
        result.perNode[node] = NodeTraffic{total_load / executions,
                                           total_store / executions};

        const int level = node->memLevel();
        auto& lvl = result.levels[size_t(level)];
        lvl.readBytes += total_load;
        lvl.updateBytes += total_store;
        for (size_t j = 0; j < group.children.size(); ++j) {
            const int child_level = group.children[j].level;
            if (child_level < 0)
                continue; // op leaf: operands feed the PEs directly
            auto& clvl = result.levels[size_t(child_level)];
            clvl.fillBytes += childFill[j] * spatialMult;
            clvl.readBytes += childDrain[j] * spatialMult;
        }

        // Footprint lands at the next-inner level, as in the resource
        // analysis.
        int child_level = -1;
        for (const auto& child : node->children()) {
            const int cl = subtreeLevel(child.get());
            if (cl < level)
                child_level = std::max(child_level, cl);
        }
        child_level = std::max(child_level, 0);
        auto& peak = result.footprintBytes[size_t(child_level)];
        peak = std::max(peak, peakFootprint);
    }
};

} // namespace

OracleResult
ConcreteOracle::run(const AnalysisTree& tree) const
{
    OracleResult result;
    result.levels.assign(size_t(spec_->numLevels()), LevelTraffic{});
    result.footprintBytes.assign(size_t(spec_->numLevels()), 0);
    if (!tree.hasRoot())
        return result;

    for (const Node* leaf : tree.root()->opLeaves()) {
        const Operator& op = workload_->op(leaf->op());
        double effective = op.opsPerPoint();
        double padded = op.opsPerPoint();
        for (DimId dim : op.dims()) {
            effective *= double(workload_->dim(dim).extent);
            padded *= double(pathSpan(tree.root(), leaf, dim));
        }
        result.effectiveOps += effective;
        result.paddedOps += padded;
        if (op.kind() == ComputeKind::Matrix)
            result.effectiveMatrixOps += effective;
    }

    std::vector<const Node*> stack{tree.root()};
    while (!stack.empty()) {
        const Node* node = stack.back();
        stack.pop_back();
        for (const auto& child : node->children())
            stack.push_back(child.get());
        if (!node->isTile())
            continue;
        TileInterp interp(*workload_, limits_, node);
        interp.run(result);
    }
    return result;
}

int64_t
ConcreteOracle::stepCost(const AnalysisTree& tree)
{
    if (!tree.hasRoot())
        return 0;
    int64_t total = 0;
    std::vector<const Node*> stack{tree.root()};
    while (!stack.empty()) {
        const Node* node = stack.back();
        stack.pop_back();
        for (const auto& child : node->children())
            stack.push_back(child.get());
        if (!node->isTile())
            continue;
        int64_t steps = node->temporalSteps();
        for (const Node* cursor = node->parent(); cursor != nullptr;
             cursor = cursor->parent()) {
            if (cursor->isTile())
                steps *= cursor->temporalSteps();
        }
        total += steps;
    }
    return total;
}

std::string
OracleResult::str(const ArchSpec& spec) const
{
    std::ostringstream os;
    for (int i = int(levels.size()) - 1; i >= 0; --i) {
        const auto& lvl = levels[size_t(i)];
        os << "L" << i << " (" << spec.level(i).name
           << "): read=" << humanCount(lvl.readBytes)
           << "B fill=" << humanCount(lvl.fillBytes)
           << "B update=" << humanCount(lvl.updateBytes)
           << "B peak=" << humanCount(double(footprintBytes[size_t(i)]))
           << "B\n";
    }
    os << "ops: effective=" << humanCount(effectiveOps)
       << " padded=" << humanCount(paddedOps) << "\n";
    return os.str();
}

} // namespace tileflow
