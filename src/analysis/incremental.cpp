#include "analysis/incremental.hpp"

#include <limits>
#include <new>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "common/strings.hpp"
#include "common/telemetry.hpp"
#include "core/validate.hpp"

namespace tileflow {

SubtreeSlots::SubtreeSlots(SubtreeCache* cache, const AnalysisTree& tree,
                           SubtreeKind kind)
    : cache_(cache)
{
    if (cache_ == nullptr || !tree.hasRoot())
        return;
    const std::vector<TileKey> keys = tileKeys(tree.root());
    slots_.resize(keys.size());
    index_.reserve(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
        Slot& slot = slots_[i];
        slot.key = SubtreeKey{keys[i].hash, keys[i].context, kind};
        slot.cached = cache_->lookup(slot.key);
        index_.emplace(keys[i].node, i);
    }

    memo_.lookup = [this](const Node* node,
                          bool with_memory) -> const double* {
        Slot& slot = slotOf(node);
        if (!slot.cached || !slot.cached->hasLatency)
            return nullptr;
        return with_memory ? &slot.cached->cycles
                           : &slot.cached->computeCycles;
    };
    memo_.record = [this](const Node* node, bool with_memory,
                          double lat) {
        Slot& slot = slotOf(node);
        if (with_memory) {
            slot.fresh.cycles = lat;
            slot.freshLat = true;
        } else {
            slot.fresh.computeCycles = lat;
            slot.freshPure = true;
        }
    };
}

DataMovementAnalyzer::PartialLookup
SubtreeSlots::dmLookup()
{
    if (cache_ == nullptr)
        return {};
    return [this](const Node* node) -> const DmNodePartial* {
        Slot& slot = slotOf(node);
        return slot.cached ? &slot.cached->dm : nullptr;
    };
}

DataMovementAnalyzer::PartialRecord
SubtreeSlots::dmRecord()
{
    if (cache_ == nullptr)
        return {};
    return [this](const Node* node, const DmNodePartial& partial) {
        Slot& slot = slotOf(node);
        slot.fresh.dm = partial;
        slot.freshDm = true;
    };
}

ResourceAnalyzer::FootprintLookup
SubtreeSlots::footprintLookup()
{
    if (cache_ == nullptr)
        return {};
    return [this](const Node* node) -> const int64_t* {
        Slot& slot = slotOf(node);
        return slot.cached ? &slot.cached->footprintBytes : nullptr;
    };
}

ResourceAnalyzer::FootprintRecord
SubtreeSlots::footprintRecord()
{
    if (cache_ == nullptr)
        return {};
    return [this](const Node* node, int64_t footprint) {
        Slot& slot = slotOf(node);
        slot.fresh.footprintBytes = footprint;
        slot.freshFp = true;
    };
}

const LatencyMemo*
SubtreeSlots::latencyMemo() const
{
    return cache_ != nullptr ? &memo_ : nullptr;
}

void
SubtreeSlots::flush()
{
    for (Slot& slot : slots_) {
        if (!slot.freshDm && !slot.freshFp && !slot.freshLat &&
            !slot.freshPure)
            continue; // fully served from cache; nothing new
        // Every pass that runs the dm analyzer visits every Tile node,
        // so a slot without fresh dm was a hit. The bound's pass
        // computes no footprint; its entries keep footprintBytes 0.
        SubtreePartial merged;
        merged.dm = slot.freshDm ? std::move(slot.fresh.dm)
                                 : slot.cached->dm;
        if (slot.freshFp)
            merged.footprintBytes = slot.fresh.footprintBytes;
        else if (slot.cached)
            merged.footprintBytes = slot.cached->footprintBytes;
        if (slot.freshLat && slot.freshPure) {
            merged.hasLatency = true;
            merged.cycles = slot.fresh.cycles;
            merged.computeCycles = slot.fresh.computeCycles;
        } else if (!slot.freshLat && !slot.freshPure && slot.cached &&
                   slot.cached->hasLatency) {
            merged.hasLatency = true;
            merged.cycles = slot.cached->cycles;
            merged.computeCycles = slot.cached->computeCycles;
        }
        // A lone freshLat (memory pass recomputed under a pure-pass
        // ancestor hit, e.g. after this node's entry was evicted)
        // stays hasLatency = false: its pure-pass twin was never
        // computed and storing a zero would poison later hits.
        cache_->insert(slot.key, merged);
    }
}

EvalResult
IncrementalEvaluator::evaluate(const AnalysisTree& tree) const
{
    static Counter& calls =
        MetricsRegistry::global().counter("analysis.incremental_evals");
    static Counter& invalid =
        MetricsRegistry::global().counter("analysis.invalid_mappings");
    static Histogram& latency_hist = MetricsRegistry::global().histogram(
        "analysis.incremental_evaluate_ns");
    calls.add();
    const ScopedLatency timer(latency_hist);
    const TraceSpan span("evaluate", "analysis");

    const Workload& workload = base_->workload();
    const ArchSpec& spec = base_->spec();
    const EvalOptions& options = base_->options();

    EvalResult result;

    // Mirror the base evaluator's fault hook exactly: injected faults
    // must not depend on which path evaluated the tree.
    if (const FaultInjector* injector = base_->faultInjector()) {
        switch (injector->decide(tree)) {
        case FaultKind::Throw:
            fatal("injected evaluator fault (seed ", injector->seed(),
                  ")");
        case FaultKind::Nan:
            result.valid = true;
            result.cycles = std::numeric_limits<double>::quiet_NaN();
            return result;
        case FaultKind::None:
            break;
        }
    }

    if (const AllocFaultInjector* alloc = base_->allocFaultInjector()) {
        if (alloc->decideKey(FaultInjector::treeKey(tree))) {
            static Counter& allocFaults = MetricsRegistry::global()
                                              .counter("mem.alloc_faults");
            allocFaults.add();
            throw std::bad_alloc();
        }
    }

    if (options.validate) {
        const TraceSpan phase("evaluate.validate", "analysis");
        for (const std::string& problem : validateTree(tree, &spec)) {
            if (!startsWith(problem, "warn:")) {
                result.problems.push_back(problem);
            }
        }
        if (!result.problems.empty()) {
            invalid.add();
            return result;
        }
    }

    SubtreeSlots slots(cache_, tree, SubtreeKind::Eval);

    {
        const TraceSpan phase("evaluate.data_movement", "analysis");
        const DataMovementAnalyzer dm_analyzer(workload, spec);
        result.dm = dm_analyzer.analyze(tree, slots.dmLookup(),
                                        slots.dmRecord());
    }

    {
        const TraceSpan phase("evaluate.resource", "analysis");
        const ResourceAnalyzer resource_analyzer(workload, spec);
        result.resources = resource_analyzer.analyze(
            tree, options.enforceMemory, slots.footprintLookup(),
            slots.footprintRecord());
    }

    if ((options.enforceMemory && !result.resources.fitsMemory) ||
        (options.enforceCompute && !result.resources.fitsCompute)) {
        result.problems = enforcementProblems(options, result.resources);
        invalid.add();
        slots.flush();
        return result;
    }

    {
        const TraceSpan phase("evaluate.latency", "analysis");
        const LatencyModel latency_model(workload, spec);
        result.latency =
            latency_model.analyze(tree, result.dm, slots.latencyMemo());
        result.cycles = result.latency.cycles;
        result.utilization = result.latency.utilization;
    }

    {
        const TraceSpan phase("evaluate.energy", "analysis");
        result.energy = computeEnergy(result.dm, spec);
        result.energyPJ = result.energy.totalPJ();
    }

    result.valid = true;
    slots.flush();
    return result;
}

} // namespace tileflow
