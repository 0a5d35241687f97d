#include "analysis/resource.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "analysis/childgroup.hpp"
#include "analysis/slice.hpp"
#include "analysis/subtreecache.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"

namespace tileflow {

namespace {

/** PE/sub-core usage of one subtree. */
struct Usage
{
    int64_t matrixPEs = 0;
    int64_t vectorLanes = 0;
    int64_t subCores = 1;
};

/** Fold one child's usage into `out` under the given binding. */
void
combine(ScopeKind binding, Usage& out, const Usage& c)
{
    if (binding == ScopeKind::Seq || binding == ScopeKind::Shar) {
        out.matrixPEs = std::max(out.matrixPEs, c.matrixPEs);
        out.vectorLanes = std::max(out.vectorLanes, c.vectorLanes);
        out.subCores = std::max(out.subCores, c.subCores);
    } else if (binding == ScopeKind::Pipe) {
        // Pipelined tiles run concurrently inside one sub-core,
        // splitting its arrays: PE demands add up (and must fit one
        // sub-core, which the caller checks), sub-cores do not.
        out.matrixPEs += c.matrixPEs;
        out.vectorLanes += c.vectorLanes;
        out.subCores = std::max(out.subCores, c.subCores);
    } else {
        // Para partitions disjoint compute and memory units.
        out.matrixPEs += c.matrixPEs;
        out.vectorLanes += c.vectorLanes;
        out.subCores += c.subCores;
    }
}

Usage usageOf(const Workload& workload, const Node* node);

/** The children of `parent` combined under `binding`, folded as they
 *  are visited (no per-child list). */
Usage
childrenUsage(const Workload& workload, const Node* parent,
              ScopeKind binding)
{
    Usage out;
    out.subCores = 0;
    for (const auto& child : parent->children())
        combine(binding, out, usageOf(workload, child.get()));
    out.subCores = std::max<int64_t>(out.subCores, 1);
    return out;
}

Usage
usageOf(const Workload& workload, const Node* node)
{
    if (node->isOp())
        return Usage{};

    if (node->isScope())
        return childrenUsage(workload, node, node->scopeKind());

    // Tile node: Seq across its direct children unless the single child
    // is a Scope carrying its own binding.
    Usage usage;
    if (node->numChildren() == 1 && node->child(0)->isScope()) {
        usage = childrenUsage(workload, node->child(0),
                              node->child(0)->scopeKind());
    } else {
        usage = childrenUsage(workload, node, ScopeKind::Seq);
    }

    if (node->memLevel() == 0) {
        // Register-level tile: spatial loops occupy the PE arrays of
        // one sub-core. The array kind comes from the ops below.
        const int64_t spatial = node->spatialExtent();
        bool has_matrix = false;
        bool has_vector = false;
        visitOpLeaves(node, [&](const Node* leaf) {
            if (workload.op(leaf->op()).kind() == ComputeKind::Matrix)
                has_matrix = true;
            else
                has_vector = true;
            return !(has_matrix && has_vector);
        });
        if (has_matrix)
            usage.matrixPEs = std::max(usage.matrixPEs, spatial);
        if (has_vector)
            usage.vectorLanes = std::max(usage.vectorLanes, spatial);
    } else {
        // Spatial loops at higher tiles replicate across sub-cores /
        // cores.
        usage.subCores *= node->spatialExtent();
    }
    return usage;
}

/**
 * Calls fn(tile) on each Tile node under `node`, in preorder with the
 * last child first (the order violations are reported in), until fn
 * returns false; returns false then.
 */
template <typename Fn>
bool
visitTiles(const Node* node, Fn& fn)
{
    if (node->isTile() && !fn(node))
        return false;
    const auto& children = node->children();
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
        if (!visitTiles(it->get(), fn))
            return false;
    }
    return true;
}

/** The buffers of stepFootprint, reused from Tile node to Tile node
 *  within one call. */
struct FootprintScratch
{
    StepGeometry geom;
    std::vector<int64_t> zero;
    std::vector<std::pair<TensorId, HyperRect>> slices;
    std::vector<HyperRect> rects;

    /** Room for every Tile node under `root`, so that the
     *  lower-bound stepFootprint allocates nothing after this. */
    void reserveLowerBound(const Workload& workload, const Node* root)
    {
        size_t loops = 0;
        auto most_loops = [&loops](const Node* tile) {
            loops = std::max(loops, tile->loops().size());
            return true;
        };
        visitTiles(root, most_loops);
        size_t leaves = 0;
        size_t accesses = 0;
        visitOpLeaves(root, [&](const Node* leaf) {
            ++leaves;
            accesses += workload.op(leaf->op()).accesses().size();
            return true;
        });
        geom.reserve(loops, leaves, workload.dims().size());
        zero.reserve(loops);
        slices.reserve(accesses);
    }
};

/**
 * Footprint in bytes of one temporal step of `tile` — the data its
 * children stage in the next-inner buffer level (Seq taking the max
 * over children, other bindings the sum; Sec. 5.2). Computed per
 * spatial instance (the tile's own spatial loops excluded) so it can
 * be compared against one buffer's capacity. Children declared at the
 * tile's own level manage their own staging and are skipped.
 */
int64_t
stepFootprint(const Workload& workload, const Node* tile,
              FootprintScratch& scratch, bool exact = true)
{
    // At level 0 the tile's spatial loops are the PE array itself and
    // one register file serves all of it, so spatial spans count; at
    // higher tiles spatial loops address separate buffer instances and
    // the per-instance share is what must fit.
    StepGeometry& geom = scratch.geom;
    geom.reset(workload, tile,
               /*include_node_spatial=*/tile->memLevel() == 0);

    // The tile's content: a single Scope child's children under its
    // binding, otherwise the tile's own children under Seq.
    ScopeKind binding = ScopeKind::Seq;
    const Node* content = tile;
    if (tile->numChildren() == 1 && tile->child(0)->isScope()) {
        binding = tile->child(0)->scopeKind();
        content = tile->child(0);
    }

    std::vector<int64_t>& zero = scratch.zero;
    zero.assign(geom.temporalLoops().size(), 0);
    std::vector<std::pair<TensorId, HyperRect>>& slices = scratch.slices;
    std::vector<HyperRect>& rects = scratch.rects;
    int64_t total = 0;
    for (const auto& owned : content->children()) {
        const Node* child = owned.get();
        if (subtreeLevel(child) >= tile->memLevel())
            continue;
        auto runs_inside = [&](OpId op) {
            return !visitOpLeaves(child, [&](const Node* leaf) {
                return leaf->op() != op;
            });
        };

        // A tensor only occupies this staging level if it crosses the
        // child's boundary: produced elsewhere, or consumed/needed
        // outside the child. Intermediates living entirely inside the
        // child are staged in its own deeper buffers.
        auto crosses_boundary = [&](TensorId tensor) {
            const OpId producer = workload.producerOf(tensor);
            if (producer < 0 || !runs_inside(producer))
                return true; // loaded from above
            const auto& consumers = workload.consumersOf(tensor);
            if (consumers.empty())
                return true; // terminal output, written upward
            for (OpId consumer : consumers) {
                if (!runs_inside(consumer))
                    return true;
            }
            return false;
        };

        // Dedupe multiple accesses of one tensor inside the child by
        // taking the exact union volume of their slices (a bounding box
        // would bill the gaps between disjoint or L-shaped slices as
        // staged bytes). Slices are grouped by sorting on the tensor.
        slices.clear();
        visitOpLeaves(child, [&](const Node* leaf) {
            const Operator& op = workload.op(leaf->op());
            for (const auto& access : op.accesses()) {
                if (crosses_boundary(access.tensor))
                    slices.push_back(
                        {access.tensor, geom.slice(leaf, access, zero)});
            }
            return true;
        });
        std::sort(slices.begin(), slices.end(),
                  [](const auto& a, const auto& b) {
                      return a.first < b.first;
                  });
        int64_t child_bytes = 0;
        for (size_t first = 0, last = 0; first < slices.size();
             first = last) {
            const TensorId tensor = slices[first].first;
            // In exact mode, the union volume of the slices; the
            // lower-bound mode takes the largest single slice instead
            // (the union contains each slice, so this is an exact
            // integer lower bound at O(rects) instead of the union's
            // inclusion-exclusion cost).
            int64_t volume = 0;
            rects.clear();
            for (last = first;
                 last < slices.size() && slices[last].first == tensor;
                 ++last) {
                if (exact)
                    rects.push_back(slices[last].second);
                else
                    volume = std::max(volume, slices[last].second.volume());
            }
            if (exact)
                volume = unionVolume(rects);
            child_bytes +=
                volume * dataTypeBytes(workload.tensor(tensor).dtype);
        }
        if (binding == ScopeKind::Seq && content->numChildren() > 1)
            total = std::max(total, child_bytes);
        else
            total += child_bytes;
    }
    return total;
}

} // namespace

int64_t
ResourceAnalyzer::tileStepFootprint(const Node* tile) const
{
    FootprintScratch scratch;
    return stepFootprint(*workload_, tile, scratch);
}

std::optional<CapacityOverflow>
ResourceAnalyzer::footprintLowerBoundOverflow(const AnalysisTree& tree) const
{
    if (!tree.hasRoot())
        return std::nullopt;
    FootprintScratch scratch;
    scratch.reserveLowerBound(*workload_, tree.root());
    std::optional<CapacityOverflow> overflow;
    auto fits = [&](const Node* node) {
        const int child_level = stagingLevel(node);
        const int64_t capacity = spec_->level(child_level).capacityBytes;
        if (capacity <= 0)
            return true;
        const int64_t fp =
            stepFootprint(*workload_, node, scratch, /*exact=*/false);
        if (fp <= capacity)
            return true;
        overflow = CapacityOverflow{child_level, fp};
        return false;
    };
    visitTiles(tree.root(), fits);
    return overflow;
}

ResourceResult
ResourceAnalyzer::analyze(const AnalysisTree& tree, bool enforce_memory,
                          SubtreeSlots* slots) const
{
    ResourceResult result;
    result.footprintBytes.assign(size_t(spec_->numLevels()), 0);
    if (!tree.hasRoot())
        return result;

    // Every violation lands in `violations` (detection order) AND in
    // its class-specific list, so the evaluator can report only the
    // constraint class that actually gated the result.
    auto computeViolation = [&result](std::string msg) {
        result.fitsCompute = false;
        result.computeViolations.push_back(msg);
        result.violations.push_back(std::move(msg));
    };
    auto memoryViolation = [&result](std::string msg) {
        result.fitsMemory = false;
        result.memoryViolations.push_back(msg);
        result.violations.push_back(std::move(msg));
    };

    const Usage usage = usageOf(*workload_, tree.root());
    result.matrixPEs = usage.matrixPEs;
    result.vectorLanes = usage.vectorLanes;
    result.subCoresUsed = usage.subCores;

    if (result.matrixPEs > spec_->pesPerSubCore()) {
        computeViolation(concat(
            "matrix PE demand ", result.matrixPEs, " exceeds array size ",
            spec_->pesPerSubCore()));
    }
    if (result.vectorLanes > spec_->vectorLanes()) {
        computeViolation(concat(
            "vector lane demand ", result.vectorLanes,
            " exceeds lane count ", spec_->vectorLanes()));
    }
    if (result.subCoresUsed > spec_->totalSubCores()) {
        computeViolation(concat(
            "sub-core demand ", result.subCoresUsed, " exceeds ",
            spec_->totalSubCores()));
    }

    // Footprints + per-node spatial fanout checks, with one set of
    // footprint buffers for every Tile node of the walk.
    FootprintScratch scratch;
    auto check = [&](const Node* node) {
        const int level = node->memLevel();
        const int child_level = stagingLevel(node);

        const int64_t* cached =
            slots ? slots->footprintLookup(node) : nullptr;
        int64_t fp = 0;
        if (cached == nullptr) {
            fp = stepFootprint(*workload_, node, scratch);
            if (slots)
                slots->footprintRecord(node, fp);
        } else {
            fp = *cached;
        }
        auto& peak = result.footprintBytes[size_t(child_level)];
        peak = std::max(peak, fp);

        const MemLevel& mem = spec_->level(child_level);
        if (enforce_memory && mem.capacityBytes > 0 &&
            fp > mem.capacityBytes) {
            memoryViolation(concat(
                "step footprint ", humanCount(double(fp)), "B at L",
                child_level, " exceeds capacity ",
                humanCount(double(mem.capacityBytes)), "B"));
        }

        if (level >= 1 && level < spec_->numLevels()) {
            const int64_t spatial = node->spatialExtent();
            const int64_t fanout = spec_->level(level).fanout;
            if (spatial > fanout) {
                computeViolation(concat(
                    "spatial extent ", spatial, " at L", level,
                    " exceeds fanout ", fanout));
            }
        }
        return true;
    };
    visitTiles(tree.root(), check);
    return result;
}

} // namespace tileflow
