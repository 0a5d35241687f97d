/**
 * @file
 * perfbench: the measurement harness behind perfbench/run.py.
 *
 * Usage: perfbench --workload W --seed N --seconds S --trace 0|1
 *                  [--specs DIR] [--trace-out FILE] [--quick]
 *
 * Workloads (see perfbench/NOTES.md for why each was chosen):
 *  - attn-search:  exploreSpace over makeAttentionSpace, Bert-S/Bert-B
 *                  on Edge and Cloud;
 *  - chain-search: exploreSpace over makeConvChainSpace(CC1) on Cloud
 *                  and Edge, and makeChainSpace for fig4.wl on Edge and
 *                  on tpu_like.arch (both loaded through the frontend);
 *  - model-eval:   MappingSpace::build + Evaluator::evaluate on a seeded
 *                  uniform draw from those eight spaces, plus the
 *                  paper's canned attention / conv-chain dataflows and
 *                  fig4.map.
 *
 * Load is one closed loop: one search (or one build + evaluation) at a
 * time, the next issued only after the previous one returned. The
 * mapper runs on a fixed 4 worker threads.
 *
 * With --trace 0 the run measures the end-to-end metrics with tracing
 * off; operation costs are process CPU time (see cpuNowNs), and wall
 * times are printed as information. With --trace 1 it runs the same
 * operations twice, untraced and then traced (the difference is the
 * tracing overhead), reads the metrics-registry deltas of the traced
 * pass, writes the Chrome trace to --trace-out for run.py to reduce,
 * and replays the traced candidate stream through each layer's public
 * entry point to time it per call.
 *
 * Every operation is also checked: a search must find a mapping with
 * no failed evaluations whose bestTree a fresh plain Evaluator
 * re-evaluates to bit-identical cycles; an evaluation must not throw,
 * must give finite positive cycles when valid, and the admissible
 * lower bound must not exceed them. Violations count as failed
 * operations.
 *
 * Prints one JSON object on stdout.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/evaluator.hpp"
#include "analysis/incremental.hpp"
#include "analysis/lowerbound.hpp"
#include "analysis/subtreecache.hpp"
#include "arch/presets.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/telemetry.hpp"
#include "core/validate.hpp"
#include "dataflows/attention.hpp"
#include "dataflows/convchain.hpp"
#include "frontend/loader.hpp"
#include "ir/builders.hpp"
#include "ir/shapes.hpp"
#include "mapper/evalcache.hpp"
#include "mapper/mapper.hpp"

using namespace tileflow;

namespace {

// ---------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------

/** Mapper worker threads for every timed search. */
constexpr int kThreads = 4;

/** CPU time of the whole process (every thread), in ns. A guest kernel
 *  with paravirtual steal accounting leaves hypervisor steal out of it,
 *  and a worker blocked at a generation's barrier adds none, so unlike
 *  wall time it does not stretch when other tenants hold the host's
 *  CPUs. */
uint64_t
cpuNowNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return uint64_t(ts.tv_sec) * 1'000'000'000u + uint64_t(ts.tv_nsec);
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool quick = false;
    std::string specs = "examples/specs";
    std::string traceOut;
};

/** Nearest-rank percentile (q in (0, 1]); NaN on an empty sample. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return std::nan("");
    std::sort(v.begin(), v.end());
    const size_t rank = size_t(std::ceil(q * double(v.size())));
    return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** FNV-1a over the bit patterns of every result value added. */
class Digest
{
  public:
    void
    add(double v)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        for (int i = 0; i < 8; ++i) {
            h_ ^= (bits >> (8 * i)) & 0xffu;
            h_ *= 0x100000001b3ULL;
        }
    }

    std::string
    hex() const
    {
        char buf[20];
        std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)h_);
        return buf;
    }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/** A flat JSON object built key by key. */
class JsonObject
{
  public:
    void
    num(const std::string& k, double v)
    {
        char buf[40];
        if (std::isfinite(v))
            std::snprintf(buf, sizeof buf, "%.17g", v);
        else
            std::snprintf(buf, sizeof buf, "null");
        raw(k, buf);
    }

    void str(const std::string& k, const std::string& v) { raw(k, jsonString(v)); }

    /** A metric as {"value": v, "unit": u}. */
    void
    metric(const std::string& k, double v, const std::string& unit)
    {
        JsonObject m;
        m.num("value", v);
        m.str("unit", unit);
        raw(k, m.text());
    }

    void
    raw(const std::string& k, const std::string& json)
    {
        if (!body_.empty())
            body_ += ",";
        body_ += jsonString(k) + ":" + json;
    }

    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

double
peakRssMb()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof usage);
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/** Median wall time per call of `body`, run `reps` times over `calls`
 *  calls each (one clock pair per repetition, not per call). */
double
nsPerCall(size_t calls, int reps, const std::function<void()>& body)
{
    if (calls == 0)
        return std::nan("");
    std::vector<double> per_call;
    for (int r = 0; r < reps; ++r) {
        const uint64_t t0 = telemetryNowNs();
        body();
        per_call.push_back(double(telemetryNowNs() - t0) / double(calls));
    }
    return percentile(per_call, 0.5);
}

// ---------------------------------------------------------------------
// Workload set-up
// ---------------------------------------------------------------------

/** Every tree a space's Builder produced during one run, as seen by
 *  the recording wrapper around MappingSpace::build. */
struct BuildLog
{
    std::mutex mutex;
    uint64_t startNs = 0;
    /** (choice hash, ns after startNs at build start), in call order. */
    std::vector<std::pair<uint64_t, uint64_t>> builds;
    /** Time spent inside the wrapped Builder. */
    uint64_t buildNs = 0;
    /** Traced runs also keep every built choice vector for replay. */
    bool keepChoices = false;
    std::vector<std::vector<int64_t>> choices;

    /** Start a new run (keeps the replay stream). */
    void
    restart()
    {
        std::lock_guard<std::mutex> lock(mutex);
        builds.clear();
        buildNs = 0;
        startNs = telemetryNowNs();
    }
};

/** One (workload, architecture) pair with its model and, for
 *  searchable cases, its mapping space. */
struct Case
{
    std::string label;
    std::unique_ptr<Workload> workload;
    std::unique_ptr<ArchSpec> arch;
    std::unique_ptr<Evaluator> model;
    /** The library's space, and the same space behind a Builder that
     *  logs every build (null for canned-dataflow-only cases). */
    std::unique_ptr<MappingSpace> space;
    std::unique_ptr<MappingSpace> recorded;
    BuildLog log;
};

using SpaceFactory = MappingSpace (*)(const Workload&, const ArchSpec&);

/** A canned dataflow: the tree comes from a dataflow builder (or the
 *  mapping notation), not from a mapping space. */
struct CannedOp
{
    std::string label;
    Case* ctx = nullptr;
    std::function<AnalysisTree()> build;
};

struct Setup
{
    std::vector<std::unique_ptr<Case>> cases; ///< searchable spaces
    std::vector<std::unique_ptr<Case>> cannedCases;
    std::vector<CannedOp> canned;
    std::unique_ptr<AnalysisTree> fig4Mapping;
    uint64_t frontendNs = 0;
    int frontendLoads = 0;
};

Case*
addCase(std::vector<std::unique_ptr<Case>>& into, std::string label,
        Workload workload, ArchSpec arch, SpaceFactory make_space)
{
    auto c = std::make_unique<Case>();
    c->label = std::move(label);
    c->workload = std::make_unique<Workload>(std::move(workload));
    c->arch = std::make_unique<ArchSpec>(std::move(arch));
    c->model = std::make_unique<Evaluator>(*c->workload, *c->arch);
    if (make_space != nullptr) {
        c->space = std::make_unique<MappingSpace>(
            make_space(*c->workload, *c->arch));
        Case* self = c.get();
        c->recorded = std::make_unique<MappingSpace>(
            c->space->knobs(), [self](const std::vector<int64_t>& choices) {
                const uint64_t t0 = telemetryNowNs();
                AnalysisTree tree = self->space->build(choices);
                const uint64_t t1 = telemetryNowNs();
                if (tracingEnabled())
                    traceRecordSpan("dataflows.build", "perfbench", t0, t1);
                const uint64_t hash = EvalCache::hashChoices(choices);
                BuildLog& log = self->log;
                std::lock_guard<std::mutex> lock(log.mutex);
                log.builds.emplace_back(hash, t0 - log.startNs);
                log.buildNs += t1 - t0;
                if (log.keepChoices)
                    log.choices.push_back(choices);
                return tree;
            });
    }
    into.push_back(std::move(c));
    return into.back().get();
}

/** Frontend loads, timed into Setup::frontendNs. */
template <typename T, typename Load>
T
timedLoad(Setup& s, const std::string& path, Load load)
{
    DiagnosticEngine diags;
    const uint64_t t0 = telemetryNowNs();
    std::optional<T> loaded = load(path, diags);
    s.frontendNs += telemetryNowNs() - t0;
    ++s.frontendLoads;
    if (!loaded)
        fatal("perfbench: cannot load '", path, "'");
    return std::move(*loaded);
}

Workload
loadWorkload(Setup& s, const std::string& path)
{
    return timedLoad<Workload>(s, path, [](const std::string& p,
                                           DiagnosticEngine& d) {
        return loadWorkloadSpec(p, d);
    });
}

ArchSpec
loadArch(Setup& s, const std::string& path)
{
    return timedLoad<ArchSpec>(s, path, [](const std::string& p,
                                           DiagnosticEngine& d) {
        return loadArchSpec(p, d);
    });
}

/** Build every workload, load every spec and construct every space
 *  and evaluator the workload needs before its first timed call. */
Setup
makeSetup(const Args& args)
{
    Setup s;
    const bool eval = args.workload == "model-eval";
    const std::vector<std::pair<const char*, ArchSpec (*)()>> archs = {
        {"Edge", &makeEdgeArch}, {"Cloud", &makeCloudArch}};

    if (args.workload == "attn-search" || eval) {
        for (const char* shape : {"Bert-S", "Bert-B"}) {
            for (const auto& [arch_name, make_arch] : archs) {
                addCase(s.cases, concat(shape, "/", arch_name),
                        buildAttention(attentionShape(shape), false),
                        make_arch(), &makeAttentionSpace);
            }
        }
    }
    Case* fig4_tpu = nullptr;
    if (args.workload == "chain-search" || eval) {
        const Workload cc1 = buildConvChain(convChainShape("CC1"));
        addCase(s.cases, "CC1/Cloud", cc1, makeCloudArch(),
                &makeConvChainSpace);
        addCase(s.cases, "CC1/Edge", cc1, makeEdgeArch(),
                &makeConvChainSpace);
        const Workload fig4 = loadWorkload(s, args.specs + "/fig4.wl");
        addCase(s.cases, "fig4/Edge", fig4, makeEdgeArch(), &makeChainSpace);
        fig4_tpu = addCase(s.cases, "fig4/tpu_like", fig4,
                           loadArch(s, args.specs + "/tpu_like.arch"),
                           &makeChainSpace);
    }
    if (!eval)
        return s;

    // The paper's canned dataflows (Figs. 10-12) and the Fig. 4
    // mapping in the tile-centric notation.
    for (const char* shape : {"Bert-S", "Bert-B"}) {
        for (const auto& [arch_name, make_arch] : archs) {
            Case* c = addCase(s.cannedCases, concat(shape, "/", arch_name),
                              buildAttention(attentionShape(shape), true),
                              make_arch(), nullptr);
            for (AttentionDataflow df : mainAttentionDataflows()) {
                s.canned.push_back(
                    {concat(c->label, "/", attentionDataflowName(df)), c,
                     [c, df]() {
                         return buildAttentionDataflow(*c->workload,
                                                       *c->arch, df);
                     }});
            }
        }
    }
    for (const auto& [arch_name, make_arch] : archs) {
        Case* c = addCase(s.cannedCases, concat("CC1/", arch_name),
                          buildConvChain(convChainShape("CC1")), make_arch(),
                          nullptr);
        for (ConvChainDataflow df : mainConvChainDataflows()) {
            s.canned.push_back(
                {concat(c->label, "/", convChainDataflowName(df)), c,
                 [c, df]() {
                     return buildConvChainDataflow(*c->workload, *c->arch,
                                                   df);
                 }});
        }
    }
    const std::string map_path = args.specs + "/fig4.map";
    s.fig4Mapping = std::make_unique<AnalysisTree>(timedLoad<AnalysisTree>(
        s, map_path,
        [fig4_tpu](const std::string& p, DiagnosticEngine& d) {
            return loadMapping(*fig4_tpu->workload, p, d);
        }));
    const AnalysisTree* mapping = s.fig4Mapping.get();
    s.canned.push_back(
        {"fig4/tpu_like/fig4.map", fig4_tpu, [mapping]() {
             return mapping->clone();
         }});
    return s;
}

/**
 * Set-up time samples. A set-up takes ~30 us (attn-search) to ~2 ms
 * (model-eval), and on a shared 4-vCPU VM the CPU speed shifts by up
 * to ~1.5x for seconds at a time with other tenants' load, so set-ups
 * timed in one burst see one host state. The untraced run therefore also times
 * short bursts of set-ups between operations, spread over the whole
 * timed loop, and reports the median of all samples.
 */
class SetupSampler
{
  public:
    explicit SetupSampler(const Args& args) : args_(args) {}

    /** One timed set-up. */
    std::unique_ptr<Setup>
    once()
    {
        const uint64_t t0 = telemetryNowNs();
        auto setup = std::make_unique<Setup>(makeSetup(args_));
        samples_.push_back(double(telemetryNowNs() - t0) / 1e9);
        return setup;
    }

    /** Between two operations: a ~2 ms burst of set-ups when ~100 ms
     *  have passed since the last one. Returns the ns it took. */
    uint64_t
    between()
    {
        const uint64_t start = telemetryNowNs();
        if (start < next_)
            return 0;
        do {
            once();
        } while (telemetryNowNs() < start + kBurstNs);
        const uint64_t end = telemetryNowNs();
        next_ = end + kGapNs;
        return end - start;
    }

    const std::vector<double>& samples() const { return samples_; }

  private:
    static constexpr uint64_t kBurstNs = 2'000'000;
    static constexpr uint64_t kGapNs = 100'000'000;
    const Args& args_;
    std::vector<double> samples_;
    uint64_t next_ = 0;
};

// ---------------------------------------------------------------------
// Searches
// ---------------------------------------------------------------------

struct SearchRun
{
    double ms = 0.0;    ///< wall time
    double cpuMs = 0.0; ///< process CPU time, all threads
    double bestMs = 0.0;
    double bestCycles = 0.0;
    double bestEnergy = 0.0;
    uint64_t candidates = 0; ///< evaluations + bound-pruned + cache hits
    uint64_t evaluations = 0;
    uint64_t builds = 0;
    uint64_t repeatBuilds = 0; ///< builds of a vector built before
    uint64_t buildNs = 0;
    std::string error;
};

MapperConfig
searchConfig(const Args& args, uint64_t seed, int threads)
{
    MapperConfig cfg;
    // mapper_search's defaults: 10 rounds, population 8, 30 samples.
    cfg.rounds = args.quick ? 2 : 10;
    cfg.population = args.quick ? 4 : 8;
    cfg.tilingSamples = args.quick ? 8 : 30;
    cfg.threads = threads;
    cfg.seed = seed;
    return cfg;
}

/** Why a finished search is wrong, or "" when it passes. */
std::string
checkSearch(const Case& c, const MapperResult& r, SearchRun& run)
{
    if (!r.found)
        return "search found no mapping";
    if (r.timedOut)
        return concat("search stopped early: ", r.stopReason);
    if (r.failedEvaluations > 0)
        return concat("search reported ", r.failedEvaluations,
                      " failed evaluations");
    const Evaluator fresh(*c.workload, *c.arch);
    const EvalResult again = fresh.evaluate(r.bestTree);
    if (!again.valid)
        return "bestTree re-evaluates as invalid";
    if (!sameBits(again.cycles, r.bestCycles))
        return "bestTree re-evaluates to different cycles";
    run.bestEnergy = again.energyPJ;
    return "";
}

SearchRun
runSearch(Case& c, const MapperConfig& cfg)
{
    SearchRun run;
    c.log.restart();
    const uint64_t t0 = c.log.startNs;
    const uint64_t cpu0 = cpuNowNs();
    try {
        const MapperResult r = exploreSpace(*c.model, *c.recorded, cfg);
        run.cpuMs = double(cpuNowNs() - cpu0) / 1e6;
        const uint64_t t1 = telemetryNowNs();
        if (tracingEnabled())
            traceRecordSpan("perfbench.search", "perfbench", t0, t1);
        run.ms = double(t1 - t0) / 1e6;
        run.evaluations = uint64_t(r.evaluations);
        run.candidates = uint64_t(r.evaluations) + r.boundPruned + r.cacheHits;
        run.bestCycles = r.bestCycles;
        run.error = checkSearch(c, r, run);

        // Outside the timed region: time to the first build of the
        // final best choice vector, and build repetition.
        const uint64_t best_hash = EvalCache::hashChoices(r.bestChoices);
        std::unordered_set<uint64_t> seen;
        std::lock_guard<std::mutex> lock(c.log.mutex);
        run.bestMs = run.ms;
        for (const auto& [hash, at_ns] : c.log.builds) {
            if (hash == best_hash)
                run.bestMs = std::min(run.bestMs, double(at_ns) / 1e6);
            if (!seen.insert(hash).second)
                ++run.repeatBuilds;
        }
        run.builds = c.log.builds.size();
        run.buildNs = c.log.buildNs;
    } catch (const std::exception& e) {
        run.error = concat("search threw: ", e.what());
    }
    return run;
}

/** Closed loop over the cases, round robin, search i with its own
 *  mapper seed. Runs whole rounds until `seconds` have passed and at
 *  least `min_searches` ran, or exactly `count` searches when set. A
 *  `sampler` times set-ups between searches. */
std::vector<SearchRun>
searchLoop(Setup& s, const Args& args, double seconds, size_t min_searches,
           size_t count = 0, SetupSampler* sampler = nullptr)
{
    std::vector<SearchRun> runs;
    const size_t n = s.cases.size();
    const auto start = std::chrono::steady_clock::now();
    for (size_t i = 0;; ++i) {
        if (count > 0 && i == count)
            break;
        const uint64_t seed = mixSeed(args.seed, i % n, i / n);
        runs.push_back(
            runSearch(*s.cases[i % n], searchConfig(args, seed, kThreads)));
        if (sampler)
            sampler->between();
        const double elapsed = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
        if (count == 0 && (i + 1) % n == 0 && i + 1 >= min_searches &&
            elapsed >= seconds)
            break;
    }
    return runs;
}

// ---------------------------------------------------------------------
// Model evaluations
// ---------------------------------------------------------------------

struct EvalOp
{
    Case* c = nullptr;
    std::vector<int64_t> choices;
    const CannedOp* canned = nullptr;

    const Evaluator& model() const { return canned ? *canned->ctx->model : *c->model; }

    const std::string& label() const { return canned ? canned->label : c->label; }

    /** Build the tree; `record` goes through the logging Builder, which
     *  only the traced run needs. */
    AnalysisTree
    build(bool record) const
    {
        if (canned)
            return canned->build();
        return (record ? c->recorded : c->space)->build(choices);
    }
};

template <typename T>
void
shuffle(std::vector<T>& v, Rng& rng)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.index(i)]);
}

/**
 * The seeded draw: an equal number of choice vectors per space plus
 * every canned dataflow, in a seeded order. Each knob's column is
 * balanced (every choice equally often, from a seeded offset) and
 * shuffled independently, so every candidate is a uniform draw while
 * the mix of cheap and costly tilings barely moves between seeds.
 */
std::vector<EvalOp>
drawOps(Setup& s, const Args& args)
{
    Rng rng(mixSeed(args.seed, 0xe7a1, 0));
    const size_t per_space = args.quick ? 4 : 512;
    std::vector<EvalOp> ops;
    for (auto& c : s.cases) {
        std::vector<EvalOp> drawn(per_space);
        for (const Knob& knob : c->space->knobs()) {
            std::vector<int64_t> column;
            const size_t offset = rng.index(knob.choices.size());
            for (size_t i = 0; i < per_space; ++i)
                column.push_back(
                    knob.choices[(offset + i) % knob.choices.size()]);
            shuffle(column, rng);
            for (size_t i = 0; i < per_space; ++i)
                drawn[i].choices.push_back(column[i]);
        }
        for (EvalOp& op : drawn) {
            op.c = c.get();
            ops.push_back(std::move(op));
        }
    }
    for (const CannedOp& canned : s.canned) {
        EvalOp op;
        op.canned = &canned;
        ops.push_back(std::move(op));
    }
    shuffle(ops, rng);
    return ops;
}

/**
 * Per-operation samples in a buffer of fixed size, touched when made,
 * so the harness's memory (and peak_rss_mb) does not grow with the
 * number of operations a run gets through. When the buffer fills it
 * keeps every other sample and from then on records every other
 * operation, so the samples stay spread evenly over the run.
 */
class Samples
{
  public:
    Samples() : v_(kCapacity) {}

    void
    add(double x)
    {
        const uint64_t i = seen_++;
        if (i % stride_ != 0)
            return;
        if (n_ == v_.size()) {
            for (size_t k = 0; k < n_ / 2; ++k)
                v_[k] = v_[2 * k];
            n_ /= 2;
            stride_ *= 2;
            if (i % stride_ != 0)
                return;
        }
        v_[n_++] = x;
    }

    /** Operations seen, recorded or not. */
    uint64_t count() const { return seen_; }

    std::vector<double>
    values() const
    {
        return {v_.begin(), v_.begin() + ptrdiff_t(n_)};
    }

  private:
    static constexpr size_t kCapacity = size_t(1) << 17;
    std::vector<double> v_;
    size_t n_ = 0;
    uint64_t seen_ = 0;
    uint64_t stride_ = 1;
};

struct EvalLoop
{
    Samples ns;    ///< wall time per operation
    Samples cpuNs; ///< CPU time per operation
    double cpuTotalNs = 0.0;
    double seconds = 0.0;
    uint64_t failed = 0;
    std::vector<std::string> errors;
    /** First-pass results per op (valid, cycles, energy). */
    std::vector<char> valid;
    std::vector<double> cycles;
    std::vector<double> energy;
};

void
noteFailure(uint64_t& failed, std::vector<std::string>& errors,
            const std::string& why)
{
    ++failed;
    if (errors.size() < 5)
        errors.push_back(why);
}

/**
 * Moves the calling thread round-robin over the CPUs it may run on, one
 * step every ~50 ms, and gives it back its CPU mask when destroyed. On
 * a shared VM the vCPUs run at different speeds (four copies of one
 * busy loop, side by side: up to ~20% apart), so a single-threaded loop
 * left on one vCPU measures that vCPU. Rotating spreads a run evenly
 * over all of them, as the four workers of a search are.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&mask_);
        if (sched_getaffinity(0, sizeof mask_, &mask_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &mask_))
                cpus_.push_back(c);
        }
    }

    ~CpuRotation()
    {
        if (cpus_.size() > 1)
            sched_setaffinity(0, sizeof mask_, &mask_);
    }

    CpuRotation(const CpuRotation&) = delete;
    CpuRotation& operator=(const CpuRotation&) = delete;

    /** Between two operations: move on once the slice is over. */
    void
    step()
    {
        const uint64_t now = telemetryNowNs();
        if (cpus_.size() < 2 || now < next_)
            return;
        next_ = now + kSliceNs;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

  private:
    static constexpr uint64_t kSliceNs = 50'000'000;
    cpu_set_t mask_;
    std::vector<int> cpus_;
    size_t turn_ = 0;
    uint64_t next_ = 0;
};

/** Closed loop over `ops` in order, repeatedly: at least one full pass,
 *  then until `seconds` have passed, or exactly `count` ops when set.
 *  A `sampler` times set-ups between ops; that time is not counted.
 *  The loop's thread rotates over the CPUs (see CpuRotation). */
EvalLoop
evalLoop(const std::vector<EvalOp>& ops, double seconds, size_t count = 0,
         bool record = false, SetupSampler* sampler = nullptr)
{
    EvalLoop loop;
    const size_t n = ops.size();
    loop.valid.assign(n, 0);
    loop.cycles.assign(n, 0.0);
    loop.energy.assign(n, 0.0);
    CpuRotation rotation;
    uint64_t start = telemetryNowNs();
    for (size_t k = 0;; ++k) {
        if (count > 0 && k == count)
            break;
        rotation.step();
        const EvalOp& op = ops[k % n];
        const uint64_t t0 = telemetryNowNs();
        const uint64_t cpu0 = cpuNowNs();
        try {
            const AnalysisTree tree = op.build(record);
            const EvalResult r = op.model().evaluate(tree);
            const double cpu = double(cpuNowNs() - cpu0);
            const uint64_t t1 = telemetryNowNs();
            loop.cpuNs.add(cpu);
            loop.cpuTotalNs += cpu;
            loop.ns.add(double(t1 - t0));
            if (r.valid && !(std::isfinite(r.cycles) && r.cycles > 0.0))
                noteFailure(loop.failed, loop.errors,
                            concat(op.label(), ": valid result with "
                                               "non-finite or non-positive "
                                               "cycles"));
            if (k < n) {
                loop.valid[k] = r.valid;
                loop.cycles[k] = r.cycles;
                loop.energy[k] = r.energyPJ;
            }
        } catch (const std::exception& e) {
            const double cpu = double(cpuNowNs() - cpu0);
            loop.cpuNs.add(cpu);
            loop.cpuTotalNs += cpu;
            loop.ns.add(double(telemetryNowNs() - t0));
            noteFailure(loop.failed, loop.errors,
                        concat(op.label(), ": evaluation threw: ", e.what()));
        }
        if (sampler)
            start += sampler->between();
        loop.seconds = double(telemetryNowNs() - start) / 1e9;
        if (count == 0 && k + 1 >= n && loop.seconds >= seconds)
            break;
    }
    return loop;
}

/** Admissibility of the lower bound on the first pass, outside the
 *  timed loop. */
void
checkBounds(const std::vector<EvalOp>& ops, EvalLoop& loop)
{
    for (size_t i = 0; i < ops.size() && i < loop.ns.count(); ++i) {
        if (!loop.valid[i])
            continue;
        const LowerBoundEvaluator lower(ops[i].model());
        const LowerBound b = lower.bound(ops[i].build(false));
        if (b.capacityReject)
            noteFailure(loop.failed, loop.errors,
                        "capacity screen rejects a valid mapping");
        else if (b.analyzed && b.cycles > loop.cycles[i])
            noteFailure(loop.failed, loop.errors,
                        "lower bound exceeds the evaluated cycles");
    }
}

// ---------------------------------------------------------------------
// Traced run: registry deltas and per-layer replay
// ---------------------------------------------------------------------

const char* const kCounters[] = {
    "mapper.candidates",        "mapper.evaluations",
    "mapper.bound_evals",       "mapper.bound_pruned",
    "evalcache.hits",           "evalcache.misses",
    "evalcache.bytes_inserted", "analysis.subtree_lookups",
    "analysis.subtree_hits",    "analysis.subtree_bytes_inserted",
};

std::map<std::string, double>
counterSnapshot()
{
    std::map<std::string, double> snap;
    for (const char* name : kCounters)
        snap[name] = double(MetricsRegistry::global().counterValue(name));
    return snap;
}

std::map<std::string, double>
counterDelta(const std::map<std::string, double>& before)
{
    std::map<std::string, double> delta = counterSnapshot();
    for (auto& [name, value] : delta)
        value -= before.at(name);
    return delta;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Per-layer ns per call over a recorded candidate stream. */
void
replayLayers(const std::vector<std::pair<Case*, std::vector<int64_t>>>& stream,
             JsonObject& out, uint64_t& failed,
             std::vector<std::string>& errors)
{
    const int reps = 3;
    std::vector<AnalysisTree> trees;
    for (const auto& [c, choices] : stream)
        trees.push_back(c->space->build(choices));
    const size_t n = trees.size();

    std::vector<std::vector<std::string>> problems(n);
    out.metric("core.validate_ns", nsPerCall(n, reps, [&] {
                   for (size_t i = 0; i < n; ++i)
                       problems[i] = validateTree(trees[i],
                                                  stream[i].first->arch.get());
               }),
               "ns");
    // The analyzers run only on trees that validate, as in evaluate().
    std::vector<size_t> checked;
    for (size_t i = 0; i < n; ++i) {
        if (std::all_of(problems[i].begin(), problems[i].end(),
                        [](const std::string& p) { return startsWith(p, "warn:"); }))
            checked.push_back(i);
    }

    std::vector<LowerBound> bounds(n);
    out.metric("analysis.bound_ns", nsPerCall(n, reps, [&] {
                   for (size_t i = 0; i < n; ++i)
                       bounds[i] = LowerBoundEvaluator(*stream[i].first->model)
                                       .bound(trees[i]);
               }),
               "ns");

    Counter& geometries =
        MetricsRegistry::global().counter("analysis.step_geometries");
    const uint64_t geometries_before = geometries.value();
    std::vector<EvalResult> full(n);
    out.metric("analysis.evaluate_ns", nsPerCall(n, reps, [&] {
                   for (size_t i = 0; i < n; ++i)
                       full[i] = stream[i].first->model->evaluate(trees[i]);
               }),
               "ns");
    out.metric("analysis.step_geometries_per_eval",
               ratio(double(geometries.value() - geometries_before),
                     double(n * reps)),
               "count");

    // The analyzers alone, on the trees evaluate() takes that far.
    std::vector<DataMovementResult> dm(n);
    out.metric("analysis.data_movement_ns", nsPerCall(checked.size(), reps, [&] {
                   for (size_t i : checked) {
                       const Case& c = *stream[i].first;
                       dm[i] = DataMovementAnalyzer(*c.workload, *c.arch)
                                   .analyze(trees[i]);
                   }
               }),
               "ns");
    out.metric("analysis.resource_ns", nsPerCall(checked.size(), reps, [&] {
                   for (size_t i : checked) {
                       const Case& c = *stream[i].first;
                       ResourceAnalyzer(*c.workload, *c.arch)
                           .analyze(trees[i], true);
                   }
               }),
               "ns");
    std::vector<size_t> fits;
    for (size_t i = 0; i < n; ++i) {
        if (full[i].valid)
            fits.push_back(i);
    }
    out.metric("analysis.latency_ns", nsPerCall(fits.size(), reps, [&] {
                   for (size_t i : fits) {
                       const Case& c = *stream[i].first;
                       LatencyModel(*c.workload, *c.arch)
                           .analyze(trees[i], dm[i]);
                   }
               }),
               "ns");
    out.metric("analysis.energy_ns", nsPerCall(fits.size(), reps, [&] {
                   for (size_t i : fits)
                       computeEnergy(dm[i], *stream[i].first->arch);
               }),
               "ns");
    out.metric("analysis.invalid_ratio",
               ratio(double(n - fits.size()), double(n)), "ratio");

    // Incremental path in stream order over one fresh SubtreeCache per
    // repetition; it must match the full path bit for bit.
    std::vector<EvalResult> inc(n);
    out.metric("analysis.incremental_evaluate_ns", nsPerCall(n, reps, [&] {
                   SubtreeCache cache;
                   for (size_t i = 0; i < n; ++i)
                       inc[i] = IncrementalEvaluator(*stream[i].first->model,
                                                     cache)
                                    .evaluate(trees[i]);
               }),
               "ns");
    for (size_t i = 0; i < n; ++i) {
        if (inc[i].valid != full[i].valid ||
            !sameBits(inc[i].cycles, full[i].cycles))
            noteFailure(failed, errors,
                        "incremental evaluation differs from full");
    }

    // Bound admissibility and tightness against the full model.
    std::vector<double> tightness;
    for (size_t i : fits) {
        if (!bounds[i].analyzed)
            continue;
        if (bounds[i].capacityReject || bounds[i].cycles > full[i].cycles)
            noteFailure(failed, errors, "lower bound is not admissible");
        else
            tightness.push_back(100.0 * bounds[i].cycles / full[i].cycles);
    }
    out.metric("mapper.bound_tightness_p50", percentile(tightness, 0.5), "%");

    // EvalCache lookup (+ insert on a miss) in stream order.
    out.metric("mapper.evalcache_lookup_ns", nsPerCall(n, reps, [&] {
                   EvalCache cache;
                   for (size_t i = 0; i < n; ++i) {
                       const std::vector<int64_t>& key = stream[i].second;
                       if (!cache.lookup(key)) {
                           CachedEval verdict;
                           verdict.valid = full[i].valid;
                           verdict.cycles = full[i].cycles;
                           cache.insert(key, verdict);
                       }
                   }
               }),
               "ns");
}

/** Tree-build metrics: time per build, builds per candidate, and the
 *  share of builds that repeat an earlier build of the same run. */
void
buildLayers(double builds, double repeats, double build_ns,
            double candidates, JsonObject& out)
{
    out.metric("dataflows.build_ns", ratio(build_ns, builds), "ns");
    out.metric("dataflows.builds_per_candidate", ratio(builds, candidates),
               "ratio");
    out.metric("dataflows.repeat_build_ratio", ratio(repeats, builds),
               "ratio");
}

/** Search-side per-layer metrics from registry deltas and SearchRuns. */
void
searchLayers(const std::vector<SearchRun>& runs,
             const std::map<std::string, double>& d, JsonObject& out)
{
    const double searches = double(std::max<size_t>(runs.size(), 1));
    std::vector<double> best_ms;
    for (const SearchRun& r : runs)
        best_ms.push_back(r.bestMs);
    out.metric("mapper.candidates", d.at("mapper.candidates") / searches,
               "count");
    out.metric("mapper.evaluations", d.at("mapper.evaluations") / searches,
               "count");
    out.metric("mapper.bound_evals", d.at("mapper.bound_evals") / searches,
               "count");
    out.metric("mapper.prune_ratio",
               ratio(d.at("mapper.bound_pruned"), d.at("mapper.candidates")),
               "ratio");
    out.metric("mapper.evalcache_hit_ratio",
               ratio(d.at("evalcache.hits"),
                     d.at("evalcache.hits") + d.at("evalcache.misses")),
               "ratio");
    out.metric("mapper.evalcache_bytes",
               d.at("evalcache.bytes_inserted") / searches, "B");
    out.metric("analysis.subtree_hit_ratio",
               ratio(d.at("analysis.subtree_hits"),
                     d.at("analysis.subtree_lookups")),
               "ratio");
    out.metric("analysis.subtree_bytes",
               d.at("analysis.subtree_bytes_inserted") / searches, "B");
    out.metric("mapper.best_ms_p50", percentile(best_ms, 0.5), "ms");
}

// ---------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------

struct Outcome
{
    JsonObject metrics;
    JsonObject info;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors;
    Digest digest;
};

void
countSearches(const std::vector<SearchRun>& runs, Outcome& o)
{
    for (const SearchRun& r : runs) {
        ++o.attempted;
        if (!r.error.empty())
            noteFailure(o.failed, o.errors, r.error);
    }
}

void
untracedSearch(Setup& s, const Args& args, SetupSampler& sampler, Outcome& o)
{
    // The first `fixed` searches always run and fix the deterministic
    // outputs (best cycles geomean, digest); the loop then continues,
    // in whole rounds, until the time is up.
    const size_t n = s.cases.size();
    const size_t fixed = (args.quick ? 1 : 25) * n;
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<SearchRun> runs =
        searchLoop(s, args, args.seconds, fixed, 0, &sampler);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    countSearches(runs, o);

    std::vector<double> ms, best_ms, cpu_ms;
    std::vector<std::vector<double>> case_ms(n);
    double candidates = 0.0, search_s = 0.0, cpu_s = 0.0, log_cycles = 0.0;
    for (size_t i = 0; i < runs.size(); ++i) {
        ms.push_back(runs[i].ms);
        cpu_ms.push_back(runs[i].cpuMs);
        case_ms[i % n].push_back(runs[i].ms);
        best_ms.push_back(runs[i].bestMs);
        candidates += double(runs[i].candidates);
        search_s += runs[i].ms / 1e3;
        cpu_s += runs[i].cpuMs / 1e3;
        if (i < fixed) {
            log_cycles += std::log(runs[i].bestCycles);
            o.digest.add(runs[i].bestCycles);
            o.digest.add(runs[i].bestEnergy);
        }
    }
    const double cpu_rate = ratio(candidates, cpu_s);
    o.metrics.metric("cpu_ms_p50", percentile(cpu_ms, 0.5), "ms");
    o.metrics.metric("cpu_ms_p90", percentile(cpu_ms, 0.9), "ms");
    o.metrics.metric("candidates_per_cpu_s", cpu_rate, "1/s");
    o.metrics.metric("cycles_geomean",
                     std::exp(log_cycles / double(fixed)), "cycles");
    o.info.num("searches", double(runs.size()));
    o.info.num("search_ms_p50", percentile(ms, 0.5));
    o.info.num("search_ms_p90", percentile(ms, 0.9));
    o.info.num("candidates_per_s", ratio(candidates, search_s));
    for (size_t c = 0; c < n; ++c)
        o.info.num("search_ms_p50." + s.cases[c]->label,
                   percentile(case_ms[c], 0.5));
    o.info.num("best_ms_p50", percentile(best_ms, 0.5));
    o.info.num("loop_s", wall);
    // Sec. 7.2: ~200 mappings per 12 s round on one core.
    o.info.num("paper_ref_ratio", cpu_rate * 12.0 / 200.0);
}

void
untracedEval(Setup& s, const Args& args, SetupSampler& sampler, Outcome& o)
{
    const std::vector<EvalOp> ops = drawOps(s, args);
    EvalLoop loop = evalLoop(ops, args.seconds, 0, false, &sampler);
    checkBounds(ops, loop);
    o.attempted += loop.ns.count();
    o.failed += loop.failed;
    o.errors.insert(o.errors.end(), loop.errors.begin(), loop.errors.end());

    double log_cycles = 0.0;
    size_t valid = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
        o.digest.add(loop.cycles[i]);
        o.digest.add(loop.energy[i]);
        if (loop.valid[i] && loop.cycles[i] > 0.0) {
            log_cycles += std::log(loop.cycles[i]);
            ++valid;
        }
    }
    const std::vector<double> ns = loop.ns.values();
    const std::vector<double> cpu_ns = loop.cpuNs.values();
    const double evals = double(loop.ns.count());
    const double rate = ratio(evals, loop.seconds);
    const double cpu_rate = ratio(evals, loop.cpuTotalNs / 1e9);
    o.metrics.metric("cpu_ms_p50", percentile(cpu_ns, 0.5) / 1e6, "ms");
    o.metrics.metric("cpu_ms_p90", percentile(cpu_ns, 0.9) / 1e6, "ms");
    o.metrics.metric("candidates_per_cpu_s", cpu_rate, "1/s");
    o.metrics.metric("cycles_geomean",
                     valid > 0 ? std::exp(log_cycles / double(valid)) : 0.0,
                     "cycles");
    o.info.num("evaluations", evals);
    o.info.num("distinct_ops", double(ops.size()));
    o.info.num("valid_ops", double(valid));
    o.info.num("eval_us_p50", percentile(ns, 0.5) / 1e3);
    o.info.num("eval_us_p99", percentile(ns, 0.99) / 1e3);
    o.info.num("evals_per_s", rate);
    o.info.num("paper_ref_ratio", cpu_rate * 12.0 / 200.0);
}

/** Re-run the first `probes.size()` traced searches at one thread, with
 *  the same (case, mapper seed): evaluations at kThreads over
 *  evaluations at one thread. A ratio, not a difference, because the
 *  difference can be 0 or negative. The best cycles must agree bit for
 *  bit. */
double
threadEvalRatio(const std::vector<std::pair<Case*, uint64_t>>& probes,
                const std::vector<SearchRun>& threaded, const Args& args,
                Outcome& o)
{
    double at_threads = 0.0, at_one = 0.0;
    for (size_t i = 0; i < probes.size(); ++i) {
        const SearchRun single =
            runSearch(*probes[i].first, searchConfig(args, probes[i].second, 1));
        ++o.attempted;
        if (!single.error.empty())
            noteFailure(o.failed, o.errors, single.error);
        else if (!sameBits(single.bestCycles, threaded[i].bestCycles))
            noteFailure(o.failed, o.errors,
                        "best cycles differ across thread counts");
        at_threads += double(threaded[i].evaluations);
        at_one += double(single.evaluations);
    }
    return ratio(at_threads, at_one);
}

std::vector<std::pair<Case*, std::vector<int64_t>>>
replayStream(Setup& s, size_t cap)
{
    std::vector<std::pair<Case*, std::vector<int64_t>>> stream;
    const size_t per_case = std::max<size_t>(1, cap / s.cases.size());
    for (auto& c : s.cases) {
        const std::vector<std::vector<int64_t>>& seen = c->log.choices;
        for (size_t i = 0; i < seen.size() && i < per_case; ++i)
            stream.emplace_back(c.get(), seen[i]);
    }
    return stream;
}

void
traced(Setup& s, const Args& args, Outcome& o)
{
    const bool search = args.workload != "model-eval";
    const double budget = args.seconds * 0.4;
    for (auto& c : s.cases) {
        c->log.keepChoices = true;
        c->log.choices.clear();
    }

    // The same operations untraced, then traced. model-eval never
    // enters the search engine, so its search-side layers are measured
    // on one probe search over fig4/Edge after the traced loop.
    std::vector<SearchRun> runs;
    double untraced_s = 0.0, traced_s = 0.0;
    std::map<std::string, double> delta;
    // (case, mapper seed) of the traced searches re-run at one thread.
    std::vector<std::pair<Case*, uint64_t>> probes;
    if (search) {
        for (size_t i = 0; i < s.cases.size(); ++i)
            probes.emplace_back(s.cases[i].get(), mixSeed(args.seed, i, 0));
        const uint64_t t0 = telemetryNowNs();
        const size_t count = searchLoop(s, args, budget, 1).size();
        untraced_s = double(telemetryNowNs() - t0) / 1e9;
        for (auto& c : s.cases)
            c->log.choices.clear();
        setTracingEnabled(true);
        clearTrace();
        const auto before = counterSnapshot();
        const uint64_t t1 = telemetryNowNs();
        runs = searchLoop(s, args, 0.0, 1, count);
        traced_s = double(telemetryNowNs() - t1) / 1e9;
        delta = counterDelta(before);
        double builds = 0, repeats = 0, build_ns = 0, candidates = 0;
        for (const SearchRun& r : runs) {
            builds += double(r.builds);
            repeats += double(r.repeatBuilds);
            build_ns += double(r.buildNs);
            candidates += double(r.candidates);
        }
        buildLayers(builds, repeats, build_ns, candidates, o.metrics);
    } else {
        const std::vector<EvalOp> ops = drawOps(s, args);
        const uint64_t t0 = telemetryNowNs();
        const size_t count = evalLoop(ops, budget).ns.count();
        untraced_s = double(telemetryNowNs() - t0) / 1e9;
        for (auto& c : s.cases) {
            c->log.choices.clear();
            c->log.restart();
        }
        setTracingEnabled(true);
        clearTrace();
        const uint64_t t1 = telemetryNowNs();
        const EvalLoop loop = evalLoop(ops, 0.0, count, true);
        traced_s = double(telemetryNowNs() - t1) / 1e9;
        o.attempted += loop.ns.count();
        o.failed += loop.failed;
        o.errors.insert(o.errors.end(), loop.errors.begin(),
                        loop.errors.end());
        double builds = 0, repeats = 0, build_ns = 0;
        Case* fig4_edge = nullptr;
        for (auto& c : s.cases) {
            std::unordered_set<uint64_t> seen;
            for (const auto& build : c->log.builds) {
                if (!seen.insert(build.first).second)
                    ++repeats;
            }
            builds += double(c->log.builds.size());
            build_ns += double(c->log.buildNs);
            if (c->label == "fig4/Edge")
                fig4_edge = c.get();
        }
        buildLayers(builds, repeats, build_ns, double(loop.ns.count()),
                    o.metrics);

        probes.emplace_back(fig4_edge, mixSeed(args.seed, 0x9e0b, 0));
        fig4_edge->log.keepChoices = false;
        const auto before = counterSnapshot();
        runs.push_back(runSearch(
            *fig4_edge, searchConfig(args, probes[0].second, kThreads)));
        delta = counterDelta(before);
    }
    setTracingEnabled(false);
    for (auto& c : s.cases)
        c->log.keepChoices = false;
    countSearches(runs, o);
    if (!args.traceOut.empty() && !writeChromeTrace(args.traceOut))
        noteFailure(o.failed, o.errors, "cannot write the trace file");

    searchLayers(runs, delta, o.metrics);
    o.metrics.metric("trace.overhead_ratio", ratio(traced_s, untraced_s),
                     "ratio");
    o.info.num("traced_s", traced_s);
    o.info.num("untraced_s", untraced_s);
    o.info.num("traced_searches", double(runs.size()));

    // Thread duplication, on the first round of traced searches.
    o.metrics.metric("mapper.thread_eval_ratio",
                     threadEvalRatio(probes, runs, args, o), "ratio");

    // Per-call layer cost over the traced candidate stream.
    replayLayers(replayStream(s, args.quick ? 32 : 1200), o.metrics,
                 o.failed, o.errors);

    // Spec-file loading; attn-search loads none during set-up, so it
    // times the chain workload's two spec files here.
    double load_us = ratio(double(s.frontendNs) / 1e3, double(s.frontendLoads));
    if (s.frontendLoads == 0) {
        Setup probe;
        for (int i = 0; i < 5; ++i) {
            loadWorkload(probe, args.specs + "/fig4.wl");
            loadArch(probe, args.specs + "/tpu_like.arch");
        }
        load_us = ratio(double(probe.frontendNs) / 1e3,
                        double(probe.frontendLoads));
    }
    o.metrics.metric("frontend.load_us", load_us, "us");
}

Args
parseArgs(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("perfbench: missing value for ", arg);
            return argv[++i];
        };
        if (arg == "--workload")
            args.workload = value();
        else if (arg == "--seed")
            args.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            args.seconds = std::atof(value().c_str());
        else if (arg == "--trace")
            args.trace = value() == "1";
        else if (arg == "--specs")
            args.specs = value();
        else if (arg == "--trace-out")
            args.traceOut = value();
        else if (arg == "--quick")
            args.quick = true;
        else
            fatal("perfbench: unexpected argument '", arg, "'");
    }
    if (args.workload != "attn-search" && args.workload != "chain-search" &&
        args.workload != "model-eval")
        fatal("perfbench: --workload must be attn-search, chain-search or "
              "model-eval");
    return args;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        const Args args = parseArgs(argc, argv);

        // Set-up, repeated; the last one is kept for the run.
        SetupSampler sampler(args);
        std::unique_ptr<Setup> setup;
        for (int r = 0; r < (args.quick ? 3 : 51); ++r) {
            setup.reset();
            setup = sampler.once();
        }

        Outcome o;
        if (args.trace) {
            traced(*setup, args, o);
        } else {
            if (args.workload == "model-eval")
                untracedEval(*setup, args, sampler, o);
            else
                untracedSearch(*setup, args, sampler, o);
            o.metrics.metric("setup_s", percentile(sampler.samples(), 0.5),
                             "s");
            o.metrics.metric("peak_rss_mb", peakRssMb(), "MB");
        }
        o.info.num("setup_reps", double(sampler.samples().size()));

        JsonObject env;
        env.num("nproc", double(std::thread::hardware_concurrency()));
        env.num("mapper_threads", kThreads);
        env.str("compiler", concat("gcc ", __VERSION__));
        env.str("build_type", PERFBENCH_BUILD_TYPE);
        env.num("seed", double(args.seed));
        env.str("workload", args.workload);
        env.num("seconds", args.seconds);

        std::string errors = "[";
        for (const std::string& error : o.errors) {
            if (errors.size() > 1)
                errors += ",";
            errors += jsonString(error);
        }
        errors += "]";

        JsonObject out;
        out.raw("env", env.text());
        out.num("attempted", double(o.attempted));
        out.num("failed", double(o.failed));
        out.raw("errors", errors);
        out.str("result_digest", o.digest.hex());
        out.raw("info", o.info.text());
        out.raw("metrics", o.metrics.text());
        std::printf("%s\n", out.text().c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
