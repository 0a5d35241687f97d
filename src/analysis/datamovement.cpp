#include "analysis/datamovement.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "analysis/childgroup.hpp"
#include "analysis/slice.hpp"
#include "analysis/subtreecache.hpp"
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

    void
    reset()
    {
        readBytes = 0.0;
        writeBytes = 0.0;
        std::fill(childFill.begin(), childFill.end(), 0.0);
        std::fill(childDrain.begin(), childDrain.end(), 0.0);
    }
};

/** What a (child, tensor) with no resident entry holds. */
const HyperRect kNoResident;

/** Resident buffer entry of one (child, tensor). */
struct Resident
{
    int child = 0;
    TensorId tensor = 0;
    HyperRect rect;
    bool dirty = false;
};

/**
 * The resident entries of one simulation, kept sorted by (child,
 * tensor) in a flat vector: a group holds a handful of entries, and
 * the vector is reused across the node's simulations. Seq evictions
 * walk it in key order, which fixes the floating-point order of the
 * drain sums.
 */
class ResidentTable
{
  public:
    size_t size() const { return entries_.size(); }
    const Resident& operator[](size_t i) const { return entries_[i]; }
    void clear() { entries_.clear(); }
    void erase(size_t i) { entries_.erase(entries_.begin() + long(i)); }

    /** The entry of (child, tensor), or nullptr. */
    Resident*
    find(int child, TensorId tensor)
    {
        const size_t i = lowerBound(child, tensor);
        return i < entries_.size() && entries_[i].child == child &&
                       entries_[i].tensor == tensor
                   ? &entries_[i]
                   : nullptr;
    }

    /** Insert or overwrite the entry of (child, tensor). */
    void
    set(int child, TensorId tensor, const HyperRect& rect, bool dirty)
    {
        if (Resident* entry = find(child, tensor)) {
            entry->rect = rect;
            entry->dirty = dirty;
            return;
        }
        entries_.insert(entries_.begin() + long(lowerBound(child, tensor)),
                        Resident{child, tensor, rect, dirty});
    }

    /** Position of the first entry with a key above (child, tensor). */
    size_t
    upperBound(int child, TensorId tensor) const
    {
        size_t i = lowerBound(child, tensor);
        while (i < entries_.size() && entries_[i].child == child &&
               entries_[i].tensor == tensor)
            ++i;
        return i;
    }

  private:
    size_t
    lowerBound(int child, TensorId tensor) const
    {
        size_t i = 0;
        while (i < entries_.size() &&
               std::make_pair(entries_[i].child, entries_[i].tensor) <
                   std::make_pair(child, tensor))
            ++i;
        return i;
    }

    std::vector<Resident> entries_;
};

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
             ResidentTable& residents, StepTraffic* sink, int boundary,
             bool conservative, PassKind pass,
             const std::vector<char>& streamed)
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
    size_t visit = 0; // position in `streamed`
    for (size_t j = 0; j < group.children.size(); ++j) {
        const ChildInfo& child = group.children[j];
        if (child.passthrough)
            continue;

        if (group.binding == ScopeKind::Seq && group.children.size() > 1) {
            // Seq: children take the same buffer in turns. When child j
            // starts, other children's residents are evicted unless
            // child j consumes the same tensor (then ownership moves).
            for (size_t i = 0; i < residents.size();) {
                if (residents[i].child == int(j)) {
                    ++i;
                    continue;
                }
                // A copy: moving it to child j reorders the table.
                const Resident entry = residents[i];
                bool used_by_j = false;
                for (const Node* leaf : child.leaves) {
                    const Operator& op = workload.op(leaf->op());
                    for (const auto& access : op.accesses()) {
                        used_by_j =
                            used_by_j || access.tensor == entry.tensor;
                    }
                }
                residents.erase(i);
                if (used_by_j) {
                    residents.set(int(j), entry.tensor, entry.rect,
                                  entry.dirty);
                } else if (entry.dirty && sink) {
                    // Dirty eviction: write the displaced data upward.
                    const double bytes =
                        step_weight * double(entry.rect.volume()) *
                        double(dataTypeBytes(
                            workload.tensor(entry.tensor).dtype));
                    sink->writeBytes += bytes;
                    sink->childDrain[size_t(entry.child)] += bytes;
                }
                i = residents.upperBound(entry.child, entry.tensor);
            }
        }

        for (const Node* leaf : child.leaves) {
            const Operator& op = workload.op(leaf->op());
            for (const auto& access : op.accesses()) {
                if (pass != PassKind::All &&
                    bool(streamed[visit++]) !=
                        (pass == PassKind::StreamedOnly)) {
                    continue;
                }
                const TensorId tensor = access.tensor;
                const double elem_bytes =
                    double(dataTypeBytes(workload.tensor(tensor).dtype));
                const HyperRect slice = geom.slice(leaf, access, idx);

                if (!access.isWrite) {
                    // Locally produced data never crosses this level.
                    if (producedInside(workload, tensor, child))
                        continue;
                    Resident* it = residents.find(int(j), tensor);
                    const HyperRect& prev = it ? it->rect : kNoResident;
                    if (sink) {
                        const double bytes =
                            weight_for(op, access) *
                            double(slice.differenceVolume(prev)) *
                            elem_bytes;
                        sink->readBytes += bytes;
                        sink->childFill[j] += bytes;
                    }
                    const bool same_rect = it && it->rect == slice;
                    if (sink && it && it->dirty && !same_rect) {
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
                    const bool dirty = it && it->dirty && same_rect;
                    residents.set(int(j), tensor, slice, dirty);
                } else {
                    Resident* it = residents.find(int(j), tensor);
                    const HyperRect& prev = it ? it->rect : kNoResident;
                    const bool escapes =
                        escapesChild(workload, tensor, child);
                    if (sink && escapes && it && it->dirty) {
                        const double bytes =
                            weight_for(op, access) *
                            double(prev.differenceVolume(slice)) *
                            elem_bytes;
                        sink->writeBytes += bytes;
                        sink->childDrain[j] += bytes;
                    }
                    residents.set(int(j), tensor, slice, true);
                }
            }
        }
    }
}

} // namespace

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

        // Per (child, leaf, access) in simulateStep's visit order: is
        // the step slice too large to retain? Only the two-pass split
        // reads it.
        std::vector<int64_t> zero(geom.temporalLoops().size(), 0);
        std::vector<char> streamed;
        if (passes.size() > 1) {
            for (const ChildInfo& child : group.children) {
                if (child.passthrough)
                    continue;
                for (const Node* leaf : child.leaves) {
                    const Operator& op = workload_->op(leaf->op());
                    for (const auto& access : op.accesses()) {
                        const int64_t bytes =
                            geom.slice(leaf, access, zero).volume() *
                            dataTypeBytes(
                                workload_->tensor(access.tensor).dtype);
                        streamed.push_back(4 * bytes > stream_threshold);
                    }
                }
            }
        }

        StepTraffic traffic(num_children);
        ResidentTable residents;
        auto accumulate = [&]() {
            load += traffic.readBytes;
            store += traffic.writeBytes;
            for (size_t j = 0; j < num_children; ++j) {
                child_fill[j] += traffic.childFill[j];
                child_drain[j] += traffic.childDrain[j];
            }
        };
        for (PassKind pass : passes) {
            const bool adjacent =
                conservative || pass == PassKind::StreamedOnly;

            // Initial (compulsory) step.
            traffic.reset();
            residents.clear();
            simulateStep(*workload_, geom, group, zero, residents,
                         &traffic, -1, conservative, pass, streamed);
            accumulate();

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
                traffic.reset();
                residents.clear();
                simulateStep(*workload_, geom, group,
                             geom.beforeAdvance(k, adjacent), residents,
                             nullptr, -1, conservative, pass, streamed);
                simulateStep(*workload_, geom, group,
                             geom.afterAdvance(k), residents, &traffic,
                             int(k), conservative, pass, streamed);
                accumulate();
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
                    const int64_t volume =
                        geom.slice(leaf, access, zero).volume();
                    const int64_t elem_bytes = dataTypeBytes(
                        workload_->tensor(access.tensor).dtype);
                    const bool streamed_slice =
                        stream_threshold > 0 &&
                        4 * (volume * elem_bytes) > stream_threshold;
                    const double execs =
                        (conservative || streamed_slice)
                            ? executions
                            : relevantExecutions(node, op, access);
                    const double bytes =
                        execs * double(volume) * double(elem_bytes);
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
                              SubtreeSlots* slots, TrafficMode mode) const
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

        const DmNodePartial* partial =
            slots ? slots->dmLookup(node) : nullptr;
        DmNodePartial computed;
        if (partial == nullptr) {
            computed = mode == TrafficMode::Exact ? analyzeTile(node)
                                                  : compulsoryTile(node);
            if (slots)
                slots->dmRecord(node, computed);
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
