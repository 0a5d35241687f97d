#include "analysis/datamovement.hpp"

#include <algorithm>
#include <array>
#include <sstream>
#include <utility>

#include "analysis/childgroup.hpp"
#include "analysis/slice.hpp"
#include "analysis/subtreecache.hpp"
#include "common/logging.hpp"
#include "common/smallbuf.hpp"
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

    /** Zero every counter, for `num_children` children. */
    void
    reset(size_t num_children)
    {
        readBytes = 0.0;
        writeBytes = 0.0;
        childFill.assign(num_children, 0.0);
        childDrain.assign(num_children, 0.0);
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
    double elemBytes = 0.0; // the tensor's element size
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
    void reserve(size_t n) { entries_.reserve(n); }
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
    set(int child, TensorId tensor, const HyperRect& rect, bool dirty,
        double elem_bytes)
    {
        if (Resident* entry = find(child, tensor)) {
            entry->rect = rect;
            entry->dirty = dirty;
            return;
        }
        entries_.insert(entries_.begin() + long(lowerBound(child, tensor)),
                        Resident{child, tensor, rect, dirty, elem_bytes});
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
 * One (child, leaf, access) of the Tile node under analysis, with the
 * values of it that are fixed for the node, so the step simulation
 * reads them instead of recomputing them at every step.
 */
struct PlannedAccess
{
    const Operator* op = nullptr;
    const TensorAccess* access = nullptr;
    const int64_t* spanRow = nullptr; // the leaf's StepGeometry row
    double elemBytes = 0.0;

    /** Weight of the initial step and of the final write-back: the
     *  node's executions under uniform weights (conservative mode or a
     *  streamed access), else relevantExecutions. */
    double executions = 0.0;

    bool producedInside = false; // reads: produced inside the child
    bool escapes = false;        // writes: must leave the child
    bool streamed = false;       // step slice too large to retain
    int64_t zeroVolume = 0;      // step-0 slice volume, if read below
};

/**
 * Which accesses a simulation pass processes. Retained accesses have
 * step slices small enough for the destination buffer to keep across
 * irrelevant-loop sweeps (phase-matched boundaries, relevant-loop
 * weights); streamed accesses are too big to retain and are re-fetched
 * every step (adjacent-step boundaries, uniform weights) — the
 * "replacement every outer iteration" behaviour of Sec. 7.1.
 */
enum class PassKind { All, RetainedOnly, StreamedOnly };

/**
 * The working state of one analyze() call, reused from Tile node to
 * Tile node: the node's geometry, child group and access plan, and the
 * buffers of its step simulation. Per call, never shared.
 */
struct DmScratch
{
    StepGeometry geom;
    ChildGroup group;

    /** Per non-passthrough (child, leaf, access), in visit order; the
     *  rows of child j are [planBegin[j], planBegin[j + 1]). */
    std::vector<PlannedAccess> plan;
    std::vector<size_t> planBegin;

    /** advancesFor(k, access) x relevantExecutions at [k * plan.size()
     *  + row], for the boundaries and rows that use relevant-loop
     *  weights. */
    std::vector<double> advanceWeights;

    /** Seq with several children: evictions defeat reuse across
     *  irrelevant loops, so every access takes uniform weights. */
    bool conservative = false;
    double executions = 0.0;

    ResidentTable residents;
    StepTraffic traffic;
    std::vector<int64_t> zero; // the initial step's loop indices
    std::vector<int64_t> step; // a boundary's steps' loop indices

    /** The node's result: filled by simulateTile. */
    DmNodePartial out;
};

/** The sizes the scratch needs over a whole tree. */
struct TreeSizes
{
    size_t tiles = 0;
    size_t leaves = 0;
    size_t accesses = 0;
    size_t loops = 0;    // most loops on one Tile node
    size_t children = 0; // most children in one child group
};

void
measureTree(const Workload& workload, const Node* node, TreeSizes& sizes)
{
    if (node->isOp()) {
        ++sizes.leaves;
        sizes.accesses += workload.op(node->op()).accesses().size();
        return;
    }
    if (node->isTile()) {
        ++sizes.tiles;
        sizes.loops = std::max(sizes.loops, node->loops().size());
        const Node* content =
            node->numChildren() == 1 && node->child(0)->isScope()
                ? node->child(0)
                : node;
        sizes.children = std::max(sizes.children, content->numChildren());
    }
    for (const auto& child : node->children())
        measureTree(workload, child.get(), sizes);
}

/** Reserve every scratch buffer for the largest node of the tree. */
void
reserveScratch(DmScratch& s, const TreeSizes& sizes, size_t num_dims)
{
    s.geom.reserve(sizes.loops, sizes.leaves, num_dims);
    s.group.children.reserve(sizes.children);
    s.group.leaves.reserve(sizes.leaves);
    s.plan.reserve(sizes.accesses);
    s.planBegin.reserve(sizes.children + 1);
    s.advanceWeights.reserve(sizes.loops * sizes.accesses);
    // A resident is keyed by (child, tensor) of one of the child's
    // accesses, so there are never more than the plan has rows.
    s.residents.reserve(sizes.accesses);
    s.traffic.childFill.reserve(sizes.children);
    s.traffic.childDrain.reserve(sizes.children);
    s.out.childFill.reserve(sizes.children);
    s.out.childDrain.reserve(sizes.children);
    s.out.childLevels.reserve(sizes.children);
    s.zero.reserve(sizes.loops);
    s.step.reserve(sizes.loops);
}

/**
 * Build the geometry, child group and access plan of `node` into the
 * scratch. `stream_threshold` > 0 enables the register-feeding split:
 * an access whose step slice exceeds a quarter of it is streamed.
 */
void
planTile(const Workload& workload, const Node* node, double executions,
         int64_t stream_threshold, DmScratch& s)
{
    const StepGeometry& geom = s.geom;
    s.executions = executions;
    s.zero.assign(geom.temporalLoops().size(), 0);
    s.plan.clear();
    s.planBegin.clear();
    for (const ChildInfo& child : s.group.children) {
        s.planBegin.push_back(s.plan.size());
        if (child.passthrough)
            continue;
        for (const Node* leaf : child.leaves) {
            const Operator& op = workload.op(leaf->op());
            const int64_t* row = geom.spanRow(leaf);
            for (const auto& access : op.accesses()) {
                PlannedAccess e;
                e.op = &op;
                e.access = &access;
                e.spanRow = row;
                const int64_t elem_bytes =
                    dataTypeBytes(workload.tensor(access.tensor).dtype);
                e.elemBytes = double(elem_bytes);
                if (access.isWrite)
                    e.escapes = escapesChild(workload, access.tensor, child);
                else
                    e.producedInside =
                        producedInside(workload, access.tensor, child);
                // The split and the final write-back read the step-0
                // slice.
                if (stream_threshold > 0 || (access.isWrite && e.escapes)) {
                    e.zeroVolume =
                        geom.slice(op, access, row, s.zero).volume();
                }
                e.streamed = stream_threshold > 0 &&
                             4 * (e.zeroVolume * elem_bytes) >
                                 stream_threshold;
                e.executions = s.conservative || e.streamed
                                   ? executions
                                   : relevantExecutions(node, op, access);
                s.plan.push_back(e);
            }
        }
    }
    s.planBegin.push_back(s.plan.size());

    const size_t rows = s.plan.size();
    const size_t num_loops = geom.temporalLoops().size();
    s.advanceWeights.assign(s.conservative ? 0 : num_loops * rows, 0.0);
    for (size_t k = 0; !s.conservative && k < num_loops; ++k) {
        if (geom.advances(k) == 0)
            continue;
        for (size_t a = 0; a < rows; ++a) {
            const PlannedAccess& e = s.plan[a];
            if (!e.streamed) {
                s.advanceWeights[k * rows + a] =
                    double(geom.advancesFor(k, *e.op, *e.access)) *
                    e.executions;
            }
        }
    }
}

/**
 * Simulate one temporal step of the planned node at loop indices
 * `idx`: visit children in order, diff each access's required slice
 * against the residents, apply Seq evictions, and (when `sink` is
 * non-null) record traffic. `pass` selects the plan rows it visits.
 *
 * `boundary` selects the advance weights: -1 means the initial
 * (compulsory) step, weighted by each row's `executions`; otherwise it
 * is the index of the advancing temporal loop, and each row is
 * weighted by its own relevant-loop advance count (from the plan's
 * advanceWeights) or, under uniform weights (conservative mode — Seq,
 * whose evictions defeat irrelevant-loop reuse — or a streamed row),
 * by the loop's advance count.
 */
void
simulateStep(DmScratch& s, const std::vector<int64_t>& idx,
             StepTraffic* sink, int boundary, PassKind pass)
{
    const StepGeometry& geom = s.geom;
    const ChildGroup& group = s.group;
    ResidentTable& residents = s.residents;
    const size_t rows = s.plan.size();
    const double step_weight =
        (boundary < 0 ? 1.0 : double(geom.advances(size_t(boundary)))) *
        s.executions;
    auto weight_for = [&](size_t a) {
        const PlannedAccess& e = s.plan[a];
        if (boundary < 0)
            return e.executions;
        if (s.conservative || e.streamed)
            return step_weight;
        return s.advanceWeights[size_t(boundary) * rows + a];
    };
    for (size_t j = 0; j < group.children.size(); ++j) {
        if (group.children[j].passthrough)
            continue;
        const size_t first = s.planBegin[j];
        const size_t last = s.planBegin[j + 1];

        if (s.conservative) {
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
                for (size_t a = first; a < last; ++a)
                    used_by_j =
                        used_by_j || s.plan[a].access->tensor == entry.tensor;
                residents.erase(i);
                if (used_by_j) {
                    residents.set(int(j), entry.tensor, entry.rect,
                                  entry.dirty, entry.elemBytes);
                } else if (entry.dirty && sink) {
                    // Dirty eviction: write the displaced data upward.
                    const double bytes = step_weight *
                                         double(entry.rect.volume()) *
                                         entry.elemBytes;
                    sink->writeBytes += bytes;
                    sink->childDrain[size_t(entry.child)] += bytes;
                }
                i = residents.upperBound(entry.child, entry.tensor);
            }
        }

        for (size_t a = first; a < last; ++a) {
            const PlannedAccess& e = s.plan[a];
            if (pass != PassKind::All &&
                e.streamed != (pass == PassKind::StreamedOnly)) {
                continue;
            }
            const TensorAccess& access = *e.access;
            // Locally produced data never crosses this level.
            if (!access.isWrite && e.producedInside)
                continue;
            const TensorId tensor = access.tensor;
            const HyperRect slice = geom.slice(*e.op, access, e.spanRow, idx);
            Resident* it = residents.find(int(j), tensor);
            const HyperRect& prev = it ? it->rect : kNoResident;

            if (!access.isWrite) {
                if (sink) {
                    const double bytes = weight_for(a) *
                                         double(slice.differenceVolume(prev)) *
                                         e.elemBytes;
                    sink->readBytes += bytes;
                    sink->childFill[j] += bytes;
                }
                const bool same_rect = it && it->rect == slice;
                if (sink && it && it->dirty && !same_rect) {
                    // A read replacing a dirty resident with a
                    // different slice displaces the written data — it
                    // must drain upward like a Seq eviction, not
                    // silently vanish.
                    const double bytes =
                        weight_for(a) * double(prev.volume()) * e.elemBytes;
                    sink->writeBytes += bytes;
                    sink->childDrain[j] += bytes;
                }
                const bool dirty = it && it->dirty && same_rect;
                residents.set(int(j), tensor, slice, dirty, e.elemBytes);
            } else {
                if (sink && e.escapes && it && it->dirty) {
                    const double bytes =
                        weight_for(a) *
                        double(prev.differenceVolume(slice)) * e.elemBytes;
                    sink->writeBytes += bytes;
                    sink->childDrain[j] += bytes;
                }
                residents.set(int(j), tensor, slice, true, e.elemBytes);
            }
        }
    }
}

/**
 * Whole-run traffic of one Tile node into `s.out` (analyzeTile's
 * value). `executions` is executionCount(node).
 */
void
simulateTile(const Workload& workload, const ArchSpec& spec,
             const Node* node, double executions, DmScratch& s)
{
    s.geom.reset(workload, node);
    childGroupOf(node, s.group);
    const StepGeometry& geom = s.geom;
    const size_t num_children = s.group.children.size();
    const int level = node->memLevel();

    s.conservative =
        s.group.binding == ScopeKind::Seq && num_children > 1;

    // When this node feeds the register level, retention is
    // capacity-aware: accesses whose step slice is too large for the
    // register file are *streamed* — re-fetched every step with no
    // irrelevant-loop reuse (the over-estimation the paper itself
    // reports in Sec. 7.1). Small slices are retained.
    bool feeds_registers = true;
    for (const ChildInfo& child : s.group.children)
        feeds_registers = feeds_registers && child.level <= 0;
    const int64_t stream_threshold =
        (!s.conservative && feeds_registers && level >= 1)
            ? spec.level(0).capacityBytes
            : 0;

    planTile(workload, node, executions, stream_threshold, s);

    std::array<PassKind, 2> passes{PassKind::All, PassKind::All};
    size_t num_passes = 1;
    if (!s.conservative && stream_threshold > 0) {
        passes = {PassKind::RetainedOnly, PassKind::StreamedOnly};
        num_passes = 2;
    }

    double load = 0.0;
    double store = 0.0;
    auto& child_fill = s.out.childFill;
    auto& child_drain = s.out.childDrain;
    child_fill.assign(num_children, 0.0);
    child_drain.assign(num_children, 0.0);
    StepTraffic& traffic = s.traffic;
    auto accumulate = [&]() {
        load += traffic.readBytes;
        store += traffic.writeBytes;
        for (size_t j = 0; j < num_children; ++j) {
            child_fill[j] += traffic.childFill[j];
            child_drain[j] += traffic.childDrain[j];
        }
    };
    for (size_t p = 0; p < num_passes; ++p) {
        const PassKind pass = passes[p];
        const bool adjacent =
            s.conservative || pass == PassKind::StreamedOnly;

        // Initial (compulsory) step.
        traffic.reset(num_children);
        s.residents.clear();
        simulateStep(s, s.zero, &traffic, -1, pass);
        accumulate();

        // One boundary type per temporal loop; contributions arrive
        // pre-weighted by the advance counts.
        for (size_t k = 0; k < geom.temporalLoops().size(); ++k) {
            if (geom.advances(k) == 0)
                continue;
            traffic.reset(num_children);
            s.residents.clear();
            geom.beforeAdvance(k, adjacent, s.step);
            simulateStep(s, s.step, nullptr, -1, pass);
            geom.afterAdvance(k, s.step);
            simulateStep(s, s.step, &traffic, int(k), pass);
            accumulate();
        }
    }

    // Final write-back of the last resident slices of escaping written
    // tensors (one per written access, repeated per execution that
    // actually produced new data).
    for (size_t j = 0; j < num_children; ++j) {
        for (size_t a = s.planBegin[j]; a < s.planBegin[j + 1]; ++a) {
            const PlannedAccess& e = s.plan[a];
            if (!e.access->isWrite || !e.escapes)
                continue;
            const double bytes =
                e.executions * double(e.zeroVolume) * e.elemBytes;
            store += bytes;
            child_drain[j] += bytes;
        }
    }

    // All contributions arrive pre-scaled to whole-run totals.
    s.out.loadBytes = load;
    s.out.storeBytes = store;
    s.out.childLevels.clear();
    for (const ChildInfo& child : s.group.children)
        s.out.childLevels.push_back(child.level);
}

/** Visit the Tile nodes at and under `node` in the order of a stack
 *  walk that pushes each node's children in order: preorder, last
 *  child first. */
template <typename Visit>
void
visitTilesLastChildFirst(const Node* node, Visit& visit)
{
    if (node->isTile())
        visit(node);
    for (size_t i = node->numChildren(); i-- > 0;)
        visitTilesLastChildFirst(node->child(i), visit);
}

} // namespace

DmNodePartial
DataMovementAnalyzer::analyzeTile(const Node* node) const
{
    DmScratch scratch;
    simulateTile(*workload_, *spec_, node, double(executionCount(node)),
                 scratch);
    return std::move(scratch.out);
}

DataMovementResult
DataMovementAnalyzer::analyze(const AnalysisTree& tree,
                              SubtreeSlots* slots) const
{
    DataMovementResult result;
    result.levels.assign(size_t(spec_->numLevels()), LevelTraffic{});

    if (!tree.hasRoot())
        return result;

    const size_t num_dims = workload_->dims().size();
    TreeSizes sizes;
    measureTree(*workload_, tree.root(), sizes);
    result.perNode.reserve(sizes.tiles);
    // Reserved at the first node the slots do not serve, so a tree
    // served whole from the SubtreeCache allocates no scratch.
    DmScratch scratch;
    bool reserved = false;

    // Compute op counts once. The spans are cheap and exact (int64),
    // so op counts are always recomputed, never cached.
    SmallBuffer<int64_t, 16> spans(num_dims, 1);
    visitOpLeaves(tree.root(), [&](const Node* leaf) {
        const Operator& op = workload_->op(leaf->op());
        pathSpans(tree.root(), leaf, num_dims, spans.data());
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
        return true;
    });

    // Walk all Tile nodes. Cached and fresh partials feed the same
    // accumulation statements in the same traversal order with the
    // same values, so the floating-point totals are bit-identical
    // whether a node's contribution came from the cache or not.
    auto visit = [&](const Node* node) {
        const double executions = double(executionCount(node));
        const DmNodePartial* partial =
            slots ? slots->dmLookup(node) : nullptr;
        if (partial == nullptr) {
            if (!reserved) {
                reserveScratch(scratch, sizes, num_dims);
                reserved = true;
            }
            simulateTile(*workload_, *spec_, node, executions, scratch);
            if (slots)
                slots->dmRecord(node, scratch.out);
            partial = &scratch.out;
        }

        // The per-node record keeps the per-execution average for the
        // latency model.
        result.perNode.add(node,
                           NodeTraffic{partial->loadBytes / executions,
                                       partial->storeBytes / executions});

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
    };
    visitTilesLastChildFirst(tree.root(), visit);
    result.perNode.sort();
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
