#include "core/validate.hpp"

#include <sstream>

#include "common/logging.hpp"
#include "common/smallbuf.hpp"
#include "common/strings.hpp"

namespace tileflow {

namespace {

/** Trees carry no source text, so every report is location-free. */
constexpr SourceLoc kNoLoc{};

void
visit(const Workload& workload, const ArchSpec* spec, const Node* node,
      int parent_level, DiagnosticEngine& diags)
{
    switch (node->type()) {
      case NodeType::Tile: {
        const int level = node->memLevel();
        if (level < 0)
            diags.error("V301", kNoLoc,
                        concat("tile has negative memory level ", level));
        if (spec && level >= spec->numLevels())
            diags.error("V301", kNoLoc,
                        concat("tile level L", level,
                               " exceeds architecture hierarchy (",
                               spec->numLevels(), " levels)"));
        if (parent_level >= 0 && level > parent_level)
            diags.error("V301", kNoLoc,
                        concat("tile level L", level,
                               " is above its parent tile L",
                               parent_level));
        const std::vector<Loop>& loops = node->loops();
        for (size_t i = 0; i < loops.size(); ++i) {
            const Loop& loop = loops[i];
            if (loop.dim < 0 ||
                size_t(loop.dim) >= workload.dims().size()) {
                diags.error("V302", kNoLoc,
                            concat("loop references unknown dim ",
                                   loop.dim));
                continue;
            }
            if (loop.extent < 1)
                diags.error("V302", kNoLoc,
                            concat("loop over dim ", loop.dim,
                                   " has extent ", loop.extent));
            // Loop lists are short: a pairwise scan of the earlier
            // loops finds a repeated (dim, kind). An earlier loop with
            // an unknown dim never matches this known one.
            bool repeated = false;
            for (size_t j = 0; j < i && !repeated; ++j) {
                repeated = loops[j].dim == loop.dim &&
                           loops[j].isSpatial() == loop.isSpatial();
            }
            if (repeated)
                diags.error("V302", kNoLoc,
                            concat("dim '", workload.dim(loop.dim).name,
                                   "' appears twice with the same kind "
                                   "in one tile"));
        }
        if (node->numChildren() == 0)
            diags.error("V301", kNoLoc, "tile node has no children");
        for (const auto& child : node->children())
            visit(workload, spec, child.get(), level, diags);
        break;
      }
      case NodeType::Scope: {
        if (node->numChildren() < 2)
            diags.error("V301", kNoLoc,
                        concat("scope '",
                               scopeKindName(node->scopeKind()),
                               "' has fewer than two children"));
        for (const auto& child : node->children())
            visit(workload, spec, child.get(), parent_level, diags);
        break;
      }
      case NodeType::Op: {
        if (node->op() < 0 || size_t(node->op()) >= workload.numOps()) {
            diags.error("V301", kNoLoc,
                        concat("op leaf references unknown op ",
                               node->op()));
            break;
        }
        const Node* tile = enclosingTile(node);
        if (!tile)
            diags.error("V301", kNoLoc,
                        concat("op '", workload.op(node->op()).name(),
                               "' has no enclosing tile"));
        else if (tile->memLevel() != 0)
            diags.error("V301", kNoLoc,
                        concat("op '", workload.op(node->op()).name(),
                               "' must sit under a level-0 tile, "
                               "found L",
                               tile->memLevel()));
        break;
      }
    }
}

void
checkCoverage(const AnalysisTree& tree, DiagnosticEngine& diags)
{
    const Workload& workload = tree.workload();
    const size_t num_dims = workload.dims().size();
    SmallBuffer<int64_t, 16> spans(num_dims, 1);
    visitOpLeaves(tree.root(), [&](const Node* leaf) {
        // Every dim's pathSpan from one leaf-to-root walk.
        pathSpans(tree.root(), leaf, num_dims, spans.data());
        const Operator& op = workload.op(leaf->op());
        for (DimId dim : op.dims()) {
            const int64_t span = spans[size_t(dim)];
            const int64_t extent = workload.dim(dim).extent;
            if (span < extent) {
                diags.error("V303", kNoLoc,
                            concat("op '", op.name(), "': dim '",
                                   workload.dim(dim).name, "' covered ",
                                   span, " < extent ", extent));
            }
        }
        return true;
    });
}

void
checkOpMultiplicity(const AnalysisTree& tree, DiagnosticEngine& diags)
{
    const Workload& workload = tree.workload();
    SmallBuffer<int, 16> counts(workload.numOps(), 0);
    visitOpLeaves(tree.root(), [&](const Node* leaf) {
        counts[size_t(leaf->op())]++;
        return true;
    });
    for (size_t i = 0; i < workload.numOps(); ++i) {
        if (counts[i] != 1) {
            diags.error("V304", kNoLoc,
                        concat("op '", workload.op(OpId(i)).name(),
                               "' appears ", counts[i],
                               " times (expected exactly 1)"));
        }
    }
}

/** Do the Op leaves under `node` name at least two distinct ops? Stops
 *  at the first leaf whose op differs from the first leaf's. */
bool
fusesSeveralOps(const Node* node)
{
    OpId first = -1;
    return !visitOpLeaves(node, [&](const Node* leaf) {
        if (first < 0)
            first = leaf->op();
        return leaf->op() == first;
    });
}

void
checkFusionGranularity(const AnalysisTree& tree, DiagnosticEngine& diags)
{
    // Sec. 4.1: above a fused producer tile, only the *consumer's*
    // reduction loops should appear; a producer's reduction loop in an
    // ancestor tile serializes the pipeline. Advisory only.
    const Workload& workload = tree.workload();
    visitOpLeaves(tree.root(), [&](const Node* leaf) {
        const Operator& op = workload.op(leaf->op());
        // Is this op a producer for another op in the tree?
        bool is_producer = false;
        for (const TensorAccess& access : op.accesses()) {
            is_producer = is_producer || (access.isWrite &&
                                          workload.isIntermediate(
                                              access.tensor));
        }
        if (!is_producer)
            return true;
        for (const Node* cursor = enclosingTile(leaf); cursor != nullptr;
             cursor = enclosingTile(cursor)) {
            // Only tiles that actually fuse several ops matter.
            if (!fusesSeveralOps(cursor))
                continue;
            for (const Loop& loop : cursor->loops()) {
                if (loop.isTemporal() && loop.extent > 1 &&
                    op.isReduction(loop.dim)) {
                    diags.warning(
                        "V305", kNoLoc,
                        concat("producer op '", op.name(),
                               "' has its reduction dim '",
                               workload.dim(loop.dim).name,
                               "' in a fusing ancestor tile; the "
                               "pipeline will serialize"));
                }
            }
        }
        return true;
    });
}

} // namespace

bool
validateTreeDiag(const AnalysisTree& tree, DiagnosticEngine& diags,
                 const ArchSpec* spec)
{
    const size_t before = diags.errorCount();
    if (!tree.hasRoot()) {
        diags.error("V301", kNoLoc, "tree has no root");
        return false;
    }
    if (!tree.root()->isTile())
        diags.error("V301", kNoLoc, "root node must be a tile");
    visit(tree.workload(), spec, tree.root(), -1, diags);
    // The path-walking checks assume a structurally sane tree; skip
    // them when the structure pass already failed.
    if (diags.errorCount() == before) {
        checkCoverage(tree, diags);
        checkOpMultiplicity(tree, diags);
        checkFusionGranularity(tree, diags);
    }
    return diags.errorCount() == before;
}

std::vector<std::string>
validateTree(const AnalysisTree& tree, const ArchSpec* spec)
{
    DiagnosticEngine diags(/*max_diagnostics=*/4096);
    validateTreeDiag(tree, diags, spec);
    std::vector<std::string> problems;
    problems.reserve(diags.diagnostics().size());
    for (const Diagnostic& diag : diags.diagnostics()) {
        if (diag.severity == Severity::Warning)
            problems.push_back(concat("warn: ", diag.message));
        else
            problems.push_back(diag.message);
    }
    return problems;
}

void
checkTree(const AnalysisTree& tree, const ArchSpec* spec)
{
    DiagnosticEngine diags(/*max_diagnostics=*/4096);
    if (validateTreeDiag(tree, diags, spec))
        return;
    std::ostringstream os;
    size_t errors = 0;
    for (const Diagnostic& diag : diags.diagnostics()) {
        if (diag.severity != Severity::Error)
            continue;
        os << "\n  [" << diag.code << "] " << diag.message;
        ++errors;
    }
    fatal("invalid analysis tree (", errors, " problem",
          errors == 1 ? "" : "s", "):", os.str());
}

} // namespace tileflow
