#include "oracle/diff.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/childgroup.hpp"
#include "analysis/datamovement.hpp"
#include "analysis/resource.hpp"
#include "analysis/slice.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"
#include "common/telemetry.hpp"

namespace tileflow {

namespace {

/** Matches a = b up to double rounding on sums of small integers. */
bool
closeEq(double a, double b)
{
    const double tol = 1e-9 * std::max({std::fabs(a), std::fabs(b), 1.0});
    return std::fabs(a - b) <= tol;
}

/** Matches a >= b up to double rounding. */
bool
atLeast(double a, double b)
{
    const double tol = 1e-9 * std::max({std::fabs(a), std::fabs(b), 1.0});
    return a >= b - tol;
}

bool
projectsDim(const TensorAccess& access, DimId dim)
{
    for (const auto& dim_expr : access.projection) {
        for (const auto& term : dim_expr) {
            if (term.dim == dim)
                return true;
        }
    }
    return false;
}

/** Replicates the analyzer's capacity-aware streaming predicate. */
bool
anyStreamedAccess(const Workload& workload, const ArchSpec& spec,
                  const AnalysisTree& tree)
{
    std::vector<const Node*> stack{tree.root()};
    ChildGroup group;
    while (!stack.empty()) {
        const Node* node = stack.back();
        stack.pop_back();
        for (const auto& child : node->children())
            stack.push_back(child.get());
        if (!node->isTile())
            continue;

        childGroupOf(node, group);
        const bool conservative = group.binding == ScopeKind::Seq &&
                                  group.children.size() > 1;
        bool feeds_registers = true;
        for (const ChildInfo& child : group.children)
            feeds_registers = feeds_registers && child.level <= 0;
        if (conservative || !feeds_registers || node->memLevel() < 1)
            continue;
        const int64_t threshold = spec.level(0).capacityBytes;
        if (threshold <= 0)
            continue;

        const StepGeometry geom(workload, node);
        std::vector<int64_t> zero(geom.temporalLoops().size(), 0);
        for (const ChildInfo& child : group.children) {
            if (child.passthrough)
                continue;
            for (const Node* leaf : child.leaves) {
                const Operator& op = workload.op(leaf->op());
                for (const auto& access : op.accesses()) {
                    const int64_t bytes =
                        geom.slice(leaf, access, zero).volume() *
                        dataTypeBytes(
                            workload.tensor(access.tensor).dtype);
                    if (4 * bytes > threshold)
                        return true;
                }
            }
        }
    }
    return false;
}

/**
 * Writes displace monotonically, so the model's per-node write-backs
 * sum to exactly one drain per output element. Two things break that:
 *
 *  - a temporal reduction (write-relevant, non-projected) loop with
 *    extent > 1 at any tile ABOVE another tile: it multiplies every
 *    inner node's write-back through relevantExecutions, re-draining
 *    the same output tile once per reduction iteration;
 *  - within the leaf tile, a reduction loop with extent > 1 outer to a
 *    projected loop with extent > 1: advancesFor then bills each
 *    displacement once per reduction round.
 */
bool
storesMonotone(const Workload& workload, const Node* leaf)
{
    const Operator& op = workload.op(leaf->op());

    std::vector<const Node*> tiles;
    for (const Node* cursor = leaf->parent(); cursor != nullptr;
         cursor = cursor->parent()) {
        if (cursor->isTile())
            tiles.push_back(cursor);
    }
    std::reverse(tiles.begin(), tiles.end()); // root-first

    for (const auto& access : op.accesses()) {
        if (!access.isWrite)
            continue;
        bool seen_revisit = false;
        for (size_t t = 0; t < tiles.size(); ++t) {
            const bool is_leaf_tile = t + 1 == tiles.size();
            for (const Loop& loop : tiles[t]->loops()) {
                if (!loop.isTemporal() || loop.extent <= 1)
                    continue;
                const bool projected = projectsDim(access, loop.dim);
                if (projected && seen_revisit)
                    return false;
                if (!projected && op.isReduction(loop.dim)) {
                    if (!is_leaf_tile)
                        return false;
                    seen_revisit = true;
                }
            }
        }
    }
    return true;
}

} // namespace

bool
isExactClass(const Workload& workload, const ArchSpec& spec,
             const AnalysisTree& tree)
{
    if (!tree.hasRoot() || workload.numOps() != 1)
        return false;

    for (const Operator& op : workload.ops()) {
        std::vector<int> tensor_uses(workload.tensors().size(), 0);
        for (const auto& access : op.accesses()) {
            ++tensor_uses[size_t(access.tensor)];
            if (tensor_uses[size_t(access.tensor)] > 1)
                return false; // repeated-tensor slices may overlap
            for (const auto& dim_expr : access.projection) {
                if (dim_expr.size() != 1 || dim_expr[0].coeff != 1)
                    return false; // halo / strided projection
            }
        }
    }

    const std::vector<const Node*> leaves = tree.root()->opLeaves();
    if (leaves.size() != 1)
        return false;
    if (!storesMonotone(workload, leaves[0]))
        return false;
    return !anyStreamedAccess(workload, spec, tree);
}

DiffReport
diffModelVsOracle(const Workload& workload, const ArchSpec& spec,
                  const AnalysisTree& tree, OracleLimits limits)
{
    static tileflow::Counter& diffs =
        MetricsRegistry::global().counter("oracle.diffs");
    static tileflow::Counter& violations =
        MetricsRegistry::global().counter("oracle.violations");
    diffs.add();
    TraceSpan span("oracle.diff", "oracle");

    DiffReport report;
    report.exactClass = isExactClass(workload, spec, tree);

    const DataMovementAnalyzer dm_analyzer(workload, spec);
    const DataMovementResult dm = dm_analyzer.analyze(tree);

    const ResourceAnalyzer res_analyzer(workload, spec);
    const ResourceResult res =
        res_analyzer.analyze(tree, /*enforce_memory=*/false);

    const ConcreteOracle oracle(workload, spec, limits);
    const OracleResult truth = oracle.run(tree);

    report.detail = concat("model:\n", dm.str(spec), "oracle:\n",
                           truth.str(spec));

    auto flag = [&](const std::string& msg) {
        report.violations.push_back(msg);
    };

    // Op counts are always exact: both sides count the same loop nests.
    if (!closeEq(dm.effectiveOps, truth.effectiveOps))
        flag(concat("effectiveOps: model ", dm.effectiveOps, " oracle ",
                    truth.effectiveOps));
    if (!closeEq(dm.paddedOps, truth.paddedOps))
        flag(concat("paddedOps: model ", dm.paddedOps, " oracle ",
                    truth.paddedOps));
    if (!closeEq(dm.effectiveMatrixOps, truth.effectiveMatrixOps))
        flag(concat("effectiveMatrixOps: model ", dm.effectiveMatrixOps,
                    " oracle ", truth.effectiveMatrixOps));

    for (int lvl = 0; lvl < spec.numLevels(); ++lvl) {
        const LevelTraffic& m = dm.levels[size_t(lvl)];
        const LevelTraffic& o = truth.levels[size_t(lvl)];
        struct Counter
        {
            const char* name;
            double model;
            double oracle;
        };
        const Counter counters[] = {
            {"read", m.readBytes, o.readBytes},
            {"fill", m.fillBytes, o.fillBytes},
            {"update", m.updateBytes, o.updateBytes},
        };
        for (const Counter& c : counters) {
            if (report.exactClass) {
                if (!closeEq(c.model, c.oracle))
                    flag(concat("L", lvl, " ", c.name,
                                "Bytes: exact class but model ", c.model,
                                " != oracle ", c.oracle));
            } else if (!atLeast(c.model, c.oracle)) {
                flag(concat("L", lvl, " ", c.name,
                            "Bytes: model ", c.model,
                            " under-counts oracle ", c.oracle));
            }
        }

        // The model observes the first step; the oracle maxes the
        // exact footprint over every step, so model <= oracle with
        // equality when slices cannot drift apart (exact class).
        const double m_fp = double(res.footprintBytes[size_t(lvl)]);
        const double o_fp = double(truth.footprintBytes[size_t(lvl)]);
        if (report.exactClass) {
            if (!closeEq(m_fp, o_fp))
                flag(concat("L", lvl,
                            " footprint: exact class but model ", m_fp,
                            " != oracle ", o_fp));
        } else if (!atLeast(o_fp, m_fp)) {
            flag(concat("L", lvl, " footprint: model ", m_fp,
                        " exceeds oracle peak ", o_fp));
        }
    }
    violations.add(report.violations.size());
    return report;
}

} // namespace tileflow
