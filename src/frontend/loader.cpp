#include "frontend/loader.hpp"

#include <algorithm>
#include <fstream>
#include <new>
#include <sstream>

#include "analysis/faultinject.hpp"
#include "common/logging.hpp"
#include "common/telemetry.hpp"
#include "core/notation.hpp"

namespace tileflow {

namespace {

/** TILEFLOW_FAULT_INJECT `oom=` hook, keyed on the input text so the
 *  same spec faults identically on every load (and in every process). */
void
maybeInjectAllocFault(const std::string& text)
{
    const FaultInjector* faults = FaultInjector::env();
    if (!faults ||
        faults->decideKey(FaultInjector::textKey(text)) != FaultKind::Oom)
        return;
    static Counter& allocFaults =
        MetricsRegistry::global().counter("mem.alloc_faults");
    allocFaults.add();
    throw std::bad_alloc();
}

/** F604: allocation failure inside the front end is a *fatal
 *  diagnostic* (the load fails with the full story in `diags`), never
 *  a crash. */
void
reportOom(DiagnosticEngine& diags, const std::string& path)
{
    diags.error("F604", SourceLoc{},
                concat("out of memory while loading ", quoted(path)));
}

} // namespace

std::optional<std::string>
readSpecFile(const std::string& path, DiagnosticEngine& diags,
             const ParseLimits& limits)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        diags.error("F601", SourceLoc{},
                    concat("cannot open ", quoted(path)));
        return std::nullopt;
    }
    // Read one byte past the cap so oversized files are detected
    // without slurping arbitrarily large input. The text grows as it
    // is read: a cap-sized buffer up front would zero-fill megabytes
    // of memory for a spec of a few hundred bytes.
    std::string text;
    char chunk[4096];
    while (text.size() <= limits.maxInputBytes) {
        const size_t want = std::min(sizeof(chunk),
                                     limits.maxInputBytes + 1 - text.size());
        in.read(chunk, std::streamsize(want));
        text.append(chunk, size_t(in.gcount()));
        if (size_t(in.gcount()) < want)
            break;
    }
    if (in.bad()) {
        diags.error("F602", SourceLoc{},
                    concat("read failure on ", quoted(path)));
        return std::nullopt;
    }
    if (text.size() > limits.maxInputBytes) {
        diags.error("F603", SourceLoc{},
                    concat(quoted(path), " exceeds the input limit of ",
                           limits.maxInputBytes, " bytes"));
        return std::nullopt;
    }
    return text;
}

std::optional<ArchSpec>
loadArchSpec(const std::string& path, DiagnosticEngine& diags,
             const ParseLimits& limits)
{
    try {
        auto text = readSpecFile(path, diags, limits);
        if (!text)
            return std::nullopt;
        maybeInjectAllocFault(*text);
        return parseArchSpec(*text, diags, limits);
    } catch (const std::bad_alloc&) {
        reportOom(diags, path);
        return std::nullopt;
    }
}

std::optional<Workload>
loadWorkloadSpec(const std::string& path, DiagnosticEngine& diags,
                 const ParseLimits& limits)
{
    try {
        auto text = readSpecFile(path, diags, limits);
        if (!text)
            return std::nullopt;
        maybeInjectAllocFault(*text);
        return parseWorkloadSpec(*text, diags, limits);
    } catch (const std::bad_alloc&) {
        reportOom(diags, path);
        return std::nullopt;
    }
}

std::optional<AnalysisTree>
loadMapping(const Workload& workload, const std::string& path,
            DiagnosticEngine& diags, const ParseLimits& limits)
{
    try {
        auto text = readSpecFile(path, diags, limits);
        if (!text)
            return std::nullopt;
        maybeInjectAllocFault(*text);
        return parseNotationDiag(workload, *text, diags, limits);
    } catch (const std::bad_alloc&) {
        reportOom(diags, path);
        return std::nullopt;
    }
}

namespace {

[[noreturn]] void
dieWithDiagnostics(const char* what, const std::string& path,
                   const DiagnosticEngine& diags)
{
    // Re-read best-effort so the report can show caret snippets; an
    // unreadable file simply renders without them.
    std::string text;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream os;
        os << in.rdbuf();
        text = os.str();
    }
    fatal("failed to load ", what, " from '", path, "' (",
          diags.summary(), "):\n", diags.render(text, path));
}

} // namespace

ArchSpec
loadArchSpecOrDie(const std::string& path)
{
    DiagnosticEngine diags;
    auto spec = loadArchSpec(path, diags);
    if (!spec)
        dieWithDiagnostics("architecture spec", path, diags);
    return std::move(*spec);
}

Workload
loadWorkloadSpecOrDie(const std::string& path)
{
    DiagnosticEngine diags;
    auto workload = loadWorkloadSpec(path, diags);
    if (!workload)
        dieWithDiagnostics("workload spec", path, diags);
    return std::move(*workload);
}

AnalysisTree
loadMappingOrDie(const Workload& workload, const std::string& path)
{
    DiagnosticEngine diags;
    auto tree = loadMapping(workload, path, diags);
    if (!tree)
        dieWithDiagnostics("mapping", path, diags);
    return std::move(*tree);
}

} // namespace tileflow
