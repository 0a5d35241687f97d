#include "analysis/datamovement.hpp"

#include <sstream>

#include "analysis/childgroup.hpp"
#include "analysis/slice.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"

namespace tileflow {

namespace {

/** Traffic sink for one boundary type. */
struct StepTraffic
{
    double readBytes = 0.0;
    double writeBytes = 0.0;
    /** Per child index: bytes filled into / read back from its buffer. */
    std::vector<double> childFill;
    std::vector<double> childDrain;

    explicit StepTraffic(size_t num_children)
        : childFill(num_children, 0.0), childDrain(num_children, 0.0)
    {
    }
};

/** Resident buffer entry of one (child, tensor). */
struct Resident
{
    HyperRect rect;
    bool dirty = false;
};

using ResidentMap = std::map<std::pair<int, TensorId>, Resident>;

/** Relevance of a dim to an access (reduction dims revisit writes). */
bool
accessRelevant(const Operator& op, const TensorAccess& access, DimId dim)
{
    for (const auto& dim_expr : access.projection) {
        for (const auto& term : dim_expr) {
            if (term.dim == dim)
                return true;
        }
    }
    return access.isWrite && op.isReduction(dim);
}

/**
 * How many executions of `node` actually move data for this access:
 * ancestor temporal loops over dims the access does not touch repeat
 * the same slice, which stays buffered below (Timeloop-style reuse
 * across outer executions). Spatial loops always multiply — separate
 * instances hold separate copies.
 */
double
relevantExecutions(const Node* node, const Operator& op,
                   const TensorAccess& access)
{
    double count = 1.0;
    for (const Node* cursor = node->parent(); cursor != nullptr;
         cursor = cursor->parent()) {
        if (!cursor->isTile())
            continue;
        for (const Loop& loop : cursor->loops()) {
            if (loop.isSpatial() || accessRelevant(op, access, loop.dim))
                count *= double(loop.extent);
        }
    }
    return count;
}

/**
 * Simulate one temporal step of the node at loop indices `idx`:
 * visit children in order, diff required slices against residents,
 * apply Seq evictions, and (when `sink` is non-null) record traffic.
 *
 * `boundary` selects the advance weights: -1 means the initial
 * (compulsory) step with weight 1 per access; otherwise it is the
 * index of the advancing temporal loop and each access is weighted by
 * its own relevant-loop advance count (or the uniform count in
 * conservative mode — used under Seq, whose evictions defeat
 * irrelevant-loop reuse).
 */
/**
 * Which accesses a simulation pass processes. Retained accesses have
 * step slices small enough for the destination buffer to keep across
 * irrelevant-loop sweeps (phase-matched boundaries, relevant-loop
 * weights); streamed accesses are too big to retain and are re-fetched
 * every step (adjacent-step boundaries, uniform weights) — the
 * "replacement every outer iteration" behaviour of Sec. 7.1.
 */
enum class PassKind { All, RetainedOnly, StreamedOnly };

void
simulateStep(const Workload& workload, const StepGeometry& geom,
             const ChildGroup& group, const std::vector<int64_t>& idx,
             ResidentMap& residents, StepTraffic* sink, int boundary,
             bool conservative, PassKind pass, int64_t stream_threshold)
{
    const double executions = double(executionCount(geom.node()));
    const double step_weight =
        (boundary < 0 ? 1.0 : double(geom.advances(size_t(boundary)))) *
        executions;
    const bool uniform = conservative || pass == PassKind::StreamedOnly;
    auto weight_for = [&](const Operator& op, const TensorAccess& access) {
        const double execs =
            uniform ? executions
                    : relevantExecutions(geom.node(), op, access);
        if (boundary < 0)
            return execs;
        if (uniform)
            return step_weight;
        return double(geom.advancesFor(size_t(boundary), op, access)) *
               execs;
    };
    std::vector<int64_t> zero_idx(geom.temporalLoops().size(), 0);
    auto streamed = [&](const Node* leaf, const TensorAccess& access) {
        if (stream_threshold <= 0)
            return false;
        const int64_t bytes =
            geom.slice(leaf, access, zero_idx).volume() *
            dataTypeBytes(workload.tensor(access.tensor).dtype);
        return 4 * bytes > stream_threshold;
    };
    for (size_t j = 0; j < group.children.size(); ++j) {
        const ChildInfo& child = group.children[j];
        if (child.passthrough)
            continue;

        if (group.binding == ScopeKind::Seq && group.children.size() > 1) {
            // Seq: children take the same buffer in turns. When child j
            // starts, other children's residents are evicted unless
            // child j consumes the same tensor (then ownership moves).
            for (auto it = residents.begin(); it != residents.end();) {
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
                    residents[{int(j), tensor}] = it->second;
                } else if (it->second.dirty && sink) {
                    // Dirty eviction: write the displaced data upward.
                    const double bytes =
                        step_weight * double(it->second.rect.volume()) *
                        double(dataTypeBytes(
                            workload.tensor(tensor).dtype));
                    sink->writeBytes += bytes;
                    sink->childDrain[size_t(it->first.first)] += bytes;
                }
                it = residents.erase(it);
            }
        }

        for (const Node* leaf : child.leaves) {
            const Operator& op = workload.op(leaf->op());
            for (const auto& access : op.accesses()) {
                if (pass != PassKind::All &&
                    streamed(leaf, access) !=
                        (pass == PassKind::StreamedOnly)) {
                    continue;
                }
                const TensorId tensor = access.tensor;
                const double elem_bytes =
                    double(dataTypeBytes(workload.tensor(tensor).dtype));
                const HyperRect slice = geom.slice(leaf, access, idx);
                auto key = std::make_pair(int(j), tensor);

                if (!access.isWrite) {
                    // Locally produced data never crosses this level.
                    if (producedInside(workload, tensor, child))
                        continue;
                    auto it = residents.find(key);
                    const HyperRect prev =
                        it == residents.end() ? HyperRect() : it->second.rect;
                    if (sink) {
                        const double bytes =
                            weight_for(op, access) *
                            double(slice.differenceVolume(prev)) *
                            elem_bytes;
                        sink->readBytes += bytes;
                        sink->childFill[j] += bytes;
                    }
                    const bool same_rect =
                        it != residents.end() && it->second.rect == slice;
                    if (sink && it != residents.end() &&
                        it->second.dirty && !same_rect) {
                        // A read replacing a dirty resident with a
                        // different slice displaces the written data —
                        // it must drain upward like a Seq eviction, not
                        // silently vanish.
                        const double bytes = weight_for(op, access) *
                                             double(prev.volume()) *
                                             elem_bytes;
                        sink->writeBytes += bytes;
                        sink->childDrain[j] += bytes;
                    }
                    const bool dirty = it != residents.end() &&
                                       it->second.dirty && same_rect;
                    residents[key] = Resident{slice, dirty};
                } else {
                    auto it = residents.find(key);
                    const HyperRect prev =
                        it == residents.end() ? HyperRect() : it->second.rect;
                    const bool escapes =
                        escapesChild(workload, tensor, child);
                    if (sink && escapes && it != residents.end() &&
                        it->second.dirty) {
                        const double bytes =
                            weight_for(op, access) *
                            double(prev.differenceVolume(slice)) *
                            elem_bytes;
                        sink->writeBytes += bytes;
                        sink->childDrain[j] += bytes;
                    }
                    residents[key] = Resident{slice, true};
                }
            }
        }
    }
}

} // namespace

DataMovementResult
DataMovementAnalyzer::analyze(const AnalysisTree& tree) const
{
    return analyze(tree, PartialLookup{}, PartialRecord{});
}

DmNodePartial
DataMovementAnalyzer::analyzeTile(const Node* node) const
{
    return tileImpl(node, /*compulsory_only=*/false);
}

DmNodePartial
DataMovementAnalyzer::compulsoryTile(const Node* node) const
{
    return tileImpl(node, /*compulsory_only=*/true);
}

DmNodePartial
DataMovementAnalyzer::tileImpl(const Node* node,
                               bool compulsory_only) const
{
    const StepGeometry geom(*workload_, node);
    const ChildGroup group = childGroupOf(node);
    const size_t num_children = group.children.size();
    const int level = node->memLevel();
    const double executions = double(executionCount(node));

    {
        // Seq's evictions defeat reuse across irrelevant loops, so it
        // falls back to the paper's conservative adjacent-step deltas.
        const bool conservative = group.binding == ScopeKind::Seq &&
                                  group.children.size() > 1;

        // When this node feeds the register level, retention is
        // capacity-aware: accesses whose step slice is too large for
        // the register file are *streamed* — re-fetched every step with
        // no irrelevant-loop reuse (the over-estimation the paper
        // itself reports in Sec. 7.1). Small slices are retained.
        bool feeds_registers = true;
        for (const ChildInfo& child : group.children)
            feeds_registers = feeds_registers && child.level <= 0;
        const int64_t stream_threshold =
            (!conservative && feeds_registers && level >= 1)
                ? spec_->level(0).capacityBytes
                : 0;

        double load = 0.0;
        double store = 0.0;
        std::vector<double> child_fill(num_children, 0.0);
        std::vector<double> child_drain(num_children, 0.0);

        std::vector<PassKind> passes;
        if (conservative || stream_threshold <= 0)
            passes = {PassKind::All};
        else
            passes = {PassKind::RetainedOnly, PassKind::StreamedOnly};

        std::vector<int64_t> zero(geom.temporalLoops().size(), 0);
        for (PassKind pass : passes) {
            const bool adjacent =
                conservative || pass == PassKind::StreamedOnly;

            // Initial (compulsory) step.
            StepTraffic init(num_children);
            ResidentMap residents;
            simulateStep(*workload_, geom, group, zero, residents,
                         &init, -1, conservative, pass,
                         stream_threshold);
            load += init.readBytes;
            store += init.writeBytes;
            for (size_t j = 0; j < num_children; ++j) {
                child_fill[j] += init.childFill[j];
                child_drain[j] += init.childDrain[j];
            }

            // One boundary type per temporal loop; contributions
            // arrive pre-weighted by the advance counts. The
            // compulsory-only mode skips this block entirely — the
            // totals it returns must stay an in-order subsequence of
            // the exact accumulation (see compulsoryTile).
            for (size_t k = 0;
                 !compulsory_only && k < geom.temporalLoops().size();
                 ++k) {
                if (geom.advances(k) == 0)
                    continue;
                StepTraffic boundary(num_children);
                ResidentMap state;
                simulateStep(*workload_, geom, group,
                             geom.beforeAdvance(k, adjacent), state,
                             nullptr, -1, conservative, pass,
                             stream_threshold);
                simulateStep(*workload_, geom, group,
                             geom.afterAdvance(k), state, &boundary,
                             int(k), conservative, pass,
                             stream_threshold);
                load += boundary.readBytes;
                store += boundary.writeBytes;
                for (size_t j = 0; j < num_children; ++j) {
                    child_fill[j] += boundary.childFill[j];
                    child_drain[j] += boundary.childDrain[j];
                }
            }
        }

        // Final write-back of the last resident slices of escaping
        // written tensors (one per written access, repeated per
        // execution that actually produced new data).
        for (size_t j = 0; j < num_children; ++j) {
            const ChildInfo& child = group.children[j];
            if (child.passthrough)
                continue;
            for (const Node* leaf : child.leaves) {
                const Operator& op = workload_->op(leaf->op());
                for (const auto& access : op.accesses()) {
                    if (!access.isWrite ||
                        !escapesChild(*workload_, access.tensor, child)) {
                        continue;
                    }
                    const int64_t slice_bytes =
                        geom.slice(leaf, access, zero).volume() *
                        dataTypeBytes(
                            workload_->tensor(access.tensor).dtype);
                    const bool streamed = stream_threshold > 0 &&
                                          4 * slice_bytes >
                                              stream_threshold;
                    const double execs =
                        (conservative || streamed)
                            ? executions
                            : relevantExecutions(node, op, access);
                    const double bytes =
                        execs *
                        double(geom.slice(leaf, access, zero).volume()) *
                        double(dataTypeBytes(
                            workload_->tensor(access.tensor).dtype));
                    store += bytes;
                    child_drain[j] += bytes;
                }
            }
        }

        // All contributions arrive pre-scaled to whole-run totals.
        DmNodePartial partial;
        partial.loadBytes = load;
        partial.storeBytes = store;
        partial.childFill = std::move(child_fill);
        partial.childDrain = std::move(child_drain);
        partial.childLevels.reserve(num_children);
        for (const ChildInfo& child : group.children)
            partial.childLevels.push_back(child.level);
        return partial;
    }
}

DataMovementResult
DataMovementAnalyzer::analyze(const AnalysisTree& tree,
                              const PartialLookup& lookup,
                              const PartialRecord& record,
                              TrafficMode mode) const
{
    DataMovementResult result;
    result.levels.assign(size_t(spec_->numLevels()), LevelTraffic{});

    if (!tree.hasRoot())
        return result;

    // Compute op counts once. The spans are cheap and exact (int64),
    // so op counts are always recomputed, never cached. The
    // compulsory mode leaves them at zero: utilization, their one
    // consumer, is not part of the bound.
    const std::vector<const Node*> leaves =
        mode == TrafficMode::Exact ? tree.root()->opLeaves()
                                   : std::vector<const Node*>{};
    for (const Node* leaf : leaves) {
        const Operator& op = workload_->op(leaf->op());
        const std::vector<int64_t> spans =
            pathSpans(tree.root(), leaf, workload_->dims().size());
        double effective = op.opsPerPoint();
        double padded = op.opsPerPoint();
        for (DimId dim : op.dims()) {
            effective *= double(workload_->dim(dim).extent);
            padded *= double(spans[size_t(dim)]);
        }
        result.effectiveOps += effective;
        result.paddedOps += padded;
        if (op.kind() == ComputeKind::Matrix)
            result.effectiveMatrixOps += effective;
    }

    // Walk all Tile nodes. Cached and fresh partials feed the same
    // accumulation statements in the same traversal order with the
    // same values, so the floating-point totals are bit-identical
    // whether a node's contribution came from the cache or not.
    std::vector<const Node*> stack{tree.root()};
    while (!stack.empty()) {
        const Node* node = stack.back();
        stack.pop_back();
        for (const auto& child : node->children())
            stack.push_back(child.get());
        if (!node->isTile())
            continue;

        const DmNodePartial* partial = lookup ? lookup(node) : nullptr;
        DmNodePartial computed;
        if (partial == nullptr) {
            computed = mode == TrafficMode::Exact ? analyzeTile(node)
                                                  : compulsoryTile(node);
            if (record)
                record(node, computed);
            partial = &computed;
        }

        // The per-node record keeps the per-execution average for the
        // latency model.
        const double executions = double(executionCount(node));
        result.perNode[node] =
            NodeTraffic{partial->loadBytes / executions,
                        partial->storeBytes / executions};

        auto& lvl = result.levels[size_t(node->memLevel())];
        lvl.readBytes += partial->loadBytes;
        lvl.updateBytes += partial->storeBytes;
        for (size_t j = 0; j < partial->childLevels.size(); ++j) {
            const int child_level = partial->childLevels[j];
            if (child_level < 0)
                continue; // op leaf: operands feed the PEs directly
            auto& clvl = result.levels[size_t(child_level)];
            clvl.fillBytes += partial->childFill[j];
            clvl.readBytes += partial->childDrain[j];
        }
    }
    return result;
}

std::string
DataMovementResult::str(const ArchSpec& spec) const
{
    std::ostringstream os;
    for (int i = int(levels.size()) - 1; i >= 0; --i) {
        const auto& lvl = levels[size_t(i)];
        os << "L" << i << " (" << spec.level(i).name
           << "): read=" << humanCount(lvl.readBytes)
           << "B fill=" << humanCount(lvl.fillBytes)
           << "B update=" << humanCount(lvl.updateBytes) << "B\n";
    }
    os << "ops: effective=" << humanCount(effectiveOps)
       << " padded=" << humanCount(paddedOps) << "\n";
    return os.str();
}

} // namespace tileflow
