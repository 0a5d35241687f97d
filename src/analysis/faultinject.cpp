#include "analysis/faultinject.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/hash.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"
#include "core/tree.hpp"

namespace tileflow {

namespace {

double
clamp01(double v)
{
    return std::min(1.0, std::max(0.0, v));
}

} // namespace

FaultInjector::FaultInjector(double throw_fraction, double nan_fraction,
                             uint64_t seed, double oom_fraction)
    : throwFraction_(clamp01(throw_fraction)),
      nanFraction_(std::min(clamp01(nan_fraction), 1.0 - throwFraction_)),
      oomFraction_(std::min(clamp01(oom_fraction),
                            1.0 - throwFraction_ - nanFraction_)),
      seed_(seed)
{
}

std::shared_ptr<const FaultInjector>
FaultInjector::fromEnv()
{
    const char* env = std::getenv("TILEFLOW_FAULT_INJECT");
    if (!env || !*env)
        return nullptr;
    double throw_fraction = 0.0;
    double nan_fraction = 0.0;
    double oom_fraction = 0.0;
    uint64_t seed = 1;
    for (const std::string& piece : split(env, ',')) {
        const std::vector<std::string> kv = split(trim(piece), '=');
        if (kv.size() != 2) {
            warn("TILEFLOW_FAULT_INJECT: ignoring malformed piece '",
                 piece, "'");
            continue;
        }
        const std::string key = trim(kv[0]);
        const std::string value = trim(kv[1]);
        if (key == "throw") {
            throw_fraction = std::strtod(value.c_str(), nullptr);
        } else if (key == "nan") {
            nan_fraction = std::strtod(value.c_str(), nullptr);
        } else if (key == "oom") {
            oom_fraction = std::strtod(value.c_str(), nullptr);
        } else if (key == "seed") {
            seed = std::strtoull(value.c_str(), nullptr, 10);
        } else {
            warn("TILEFLOW_FAULT_INJECT: unknown key '", key, "'");
        }
    }
    if (throw_fraction <= 0.0 && nan_fraction <= 0.0 && oom_fraction <= 0.0)
        return nullptr;
    return std::make_shared<const FaultInjector>(
        throw_fraction, nan_fraction, seed, oom_fraction);
}

const FaultInjector*
FaultInjector::env()
{
    static const std::shared_ptr<const FaultInjector> injector = fromEnv();
    return injector.get();
}

uint64_t
FaultInjector::treeKey(const AnalysisTree& tree)
{
    return textKey(tree.str());
}

uint64_t
FaultInjector::textKey(const std::string& text)
{
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        hash ^= uint64_t(uint8_t(c));
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

FaultKind
FaultInjector::decideKey(uint64_t key) const
{
    // 53-bit mantissa draw in [0, 1), pure in (seed, key); mixing
    // spreads the key bits so structurally similar trees fault
    // independently.
    const uint64_t bits = mix64(key ^ mix64(seed_));
    const double u = double(bits >> 11) * 0x1.0p-53;
    if (u < throwFraction_)
        return FaultKind::Throw;
    if (u < throwFraction_ + nanFraction_)
        return FaultKind::Nan;
    if (u < throwFraction_ + nanFraction_ + oomFraction_)
        return FaultKind::Oom;
    return FaultKind::None;
}

FaultKind
FaultInjector::decide(const AnalysisTree& tree) const
{
    return decideKey(treeKey(tree));
}

} // namespace tileflow
