#include "analysis/latency.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/subtreecache.hpp"
#include "common/logging.hpp"

namespace tileflow {

namespace {

struct LatencyContext
{
    const Workload* workload;
    const ArchSpec* spec;
    const DataMovementResult* dm;
    LatencyResult* result;
    bool withMemory = true;
    SubtreeSlots* slots = nullptr;
};

/** Cycles for one temporal step of a level-0 tile running `op`. */
double
leafStepCycles(const LatencyContext& ctx, const Node* l0_tile, OpId op_id)
{
    const Operator& op = ctx.workload->op(op_id);
    const double points =
        double(l0_tile->spatialExtent()) * op.opsPerPoint();
    const double throughput = op.kind() == ComputeKind::Matrix
                                  ? double(ctx.spec->pesPerSubCore())
                                  : double(ctx.spec->vectorLanes());
    return std::max(1.0, std::ceil(points / throughput));
}

/** Does any op leaf of `node`'s subtree iterate `dim`? Walks the
 *  leaves in place (no op list is built). */
bool
anyOpUsesDim(const Workload& workload, const Node* node, DimId dim)
{
    if (node->isOp())
        return workload.op(node->op()).usesDim(dim);
    for (const auto& child : node->children()) {
        if (anyOpUsesDim(workload, child.get(), dim))
            return true;
    }
    return false;
}

/**
 * Temporal steps of `tile` that a child subtree actually participates
 * in: loops over dims none of the child's ops iterate don't re-execute
 * the child (the data is simply reused across those steps).
 */
double
relevantSteps(const LatencyContext& ctx, const Node* tile,
              const Node* child)
{
    double steps = 1.0;
    for (const Loop& loop : tile->loops()) {
        // An extent-1 loop multiplies by exactly 1.0: skip its walk.
        if (!loop.isTemporal() || loop.extent == 1)
            continue;
        if (anyOpUsesDim(*ctx.workload, child, loop.dim))
            steps *= double(loop.extent);
    }
    return steps;
}

double latencyOf(const LatencyContext& ctx, const Node* node);

/**
 * Total compute-side cycles of one execution of tile `tile` over the
 * children of `parent` (the tile itself, or the Scope directly under
 * it): each child contributes its per-execution latency times the
 * steps it participates in; Seq/Shar serialize children (sum),
 * Para/Pipe overlap them (max).
 */
double
childTotal(const LatencyContext& ctx, const Node* tile, ScopeKind binding,
           const Node* parent)
{
    double sum = 0.0;
    double peak = 0.0;
    for (const auto& owned : parent->children()) {
        const Node* child = owned.get();
        double lat = 0.0;
        if (child->isScope()) {
            // The nested scope's own children are already scaled by the
            // tile's relevant steps.
            lat = childTotal(ctx, tile, child->scopeKind(), child);
        } else {
            lat = child->isOp() ? leafStepCycles(ctx, tile, child->op())
                                : latencyOf(ctx, child);
            lat *= relevantSteps(ctx, tile, child);
        }
        sum += lat;
        peak = std::max(peak, lat);
    }
    return isConcurrent(binding) ? peak : sum;
}

/**
 * Accounting-only traversal for a memory-pass memo hit: visit the
 * Tile children of `parent` (through nested Scopes, in child order —
 * exactly the order childTotal recurses them) so their nodeCycles /
 * levelAccessCycles contributions accumulate as in a full pass.
 */
void
visitForAccounting(const LatencyContext& ctx, const Node* parent)
{
    for (const auto& owned : parent->children()) {
        const Node* child = owned.get();
        if (child->isScope())
            visitForAccounting(ctx, child);
        else if (child->isTile())
            latencyOf(ctx, child);
        // Op leaves carry no accounting of their own.
    }
}

double
latencyOf(const LatencyContext& ctx, const Node* node)
{
    if (!node->isTile())
        panic("latencyOf: expected a Tile node");

    const double* cached =
        ctx.slots ? ctx.slots->latencyLookup(node, ctx.withMemory)
                  : nullptr;

    // The pure pass does no accounting, so a hit skips the subtree.
    if (cached != nullptr && !ctx.withMemory)
        return *cached;

    // A single Scope child binds the tile's children; otherwise they
    // run in sequence.
    ScopeKind binding = ScopeKind::Seq;
    const Node* parent = node;
    if (node->numChildren() == 1 && node->child(0)->isScope()) {
        parent = node->child(0);
        binding = parent->scopeKind();
    }

    double load_cycles = 0.0;
    double store_cycles = 0.0;
    if (ctx.withMemory) {
        const MemLevel& mem = ctx.spec->level(node->memLevel());
        const double bw = mem.bytesPerCycle(ctx.spec->frequencyGHz());
        auto it = ctx.dm->perNode.find(node);
        if (it != ctx.dm->perNode.end() && bw > 0.0) {
            load_cycles = it->second.loadBytes / bw;
            store_cycles = it->second.storeBytes / bw;
        }
    }

    double lat = 0.0;
    if (cached != nullptr) {
        // Memory-pass hit: descendants still owe their accounting (in
        // the same post-order a full pass uses), but this node's
        // relevant-steps / leaf-throughput arithmetic is skipped.
        visitForAccounting(ctx, parent);
        lat = *cached;
    } else {
        const double compute = childTotal(ctx, node, binding, parent);
        // Loads, compute and stores overlap under double buffering,
        // but loads and stores share the level's port/bus bandwidth.
        lat = std::max(compute, load_cycles + store_cycles);
        if (ctx.slots)
            ctx.slots->latencyRecord(node, ctx.withMemory, lat);
    }

    if (ctx.withMemory) {
        ctx.result->nodeCycles.add(node, lat);
        ctx.result->levelAccessCycles[size_t(node->memLevel())] +=
            double(executionCount(node)) * (load_cycles + store_cycles);
    }
    return lat;
}

} // namespace

double
LatencyModel::rooflineCycles(const AnalysisTree& tree) const
{
    if (!tree.hasRoot())
        return 0.0;
    // The pure-compute pass reads neither traffic nor results.
    const LatencyContext pure{workload_, spec_, nullptr, nullptr, false,
                              nullptr};
    return latencyOf(pure, tree.root());
}

LatencyResult
LatencyModel::analyze(const AnalysisTree& tree,
                      const DataMovementResult& dm,
                      SubtreeSlots* slots) const
{
    LatencyResult result;
    result.levelAccessCycles.assign(size_t(spec_->numLevels()), 0.0);
    if (!tree.hasRoot())
        return result;

    // The memory pass visits each Tile node once, as the data-movement
    // pass did.
    result.nodeCycles.reserve(dm.perNode.size());
    LatencyContext ctx{workload_, spec_, &dm, &result, true, slots};
    result.cycles = latencyOf(ctx, tree.root());
    result.nodeCycles.sort();

    LatencyContext pure{workload_, spec_, &dm, &result, false, slots};
    result.computeCycles = latencyOf(pure, tree.root());

    // Utilization counts work against the array that executes it:
    // matrix MACs against the PE arrays; for vector-only workloads
    // (no matrix ops at all) the vector lanes are the busy resource,
    // so elementwise/softmax chains report lane utilization instead of
    // a meaningless 0.
    const double pe_cycles = result.cycles * double(spec_->totalPEs());
    if (dm.effectiveMatrixOps > 0.0) {
        result.utilization =
            pe_cycles > 0.0 ? dm.effectiveMatrixOps / pe_cycles : 0.0;
    } else {
        const double lane_cycles =
            result.cycles *
            double(spec_->totalSubCores() * spec_->vectorLanes());
        const double vector_ops = dm.effectiveOps - dm.effectiveMatrixOps;
        result.utilization =
            lane_cycles > 0.0 ? vector_ops / lane_cycles : 0.0;
    }
    return result;
}

} // namespace tileflow
