#include "core/mapping.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hpp"

namespace tileflow {

int64_t
ceilDiv(int64_t a, int64_t b)
{
    if (b <= 0)
        panic("ceilDiv: non-positive divisor ", b);
    return (a + b - 1) / b;
}

std::vector<int64_t>
divisors(int64_t n)
{
    std::vector<int64_t> small;
    std::vector<int64_t> large;
    for (int64_t d = 1; d * d <= n; ++d) {
        if (n % d == 0) {
            small.push_back(d);
            if (d != n / d)
                large.push_back(n / d);
        }
    }
    small.insert(small.end(), large.rbegin(), large.rend());
    return small;
}

std::vector<int64_t>
splitBalanced(int64_t extent, int parts)
{
    std::vector<int64_t> out(size_t(std::max(parts, 0)));
    splitBalanced(extent, parts, out.data());
    return out;
}

void
splitBalanced(int64_t extent, int parts, int64_t* out)
{
    if (parts <= 0)
        fatal("splitBalanced: parts must be positive");
    int64_t remaining = extent;
    for (int left = parts; left >= 1; --left) {
        int64_t& slot = out[parts - left];
        if (left == 1) {
            slot = remaining;
            break;
        }
        const double target = std::pow(double(remaining), 1.0 / left);
        // Prefer an exact divisor near the target to avoid padding.
        int64_t best = std::max<int64_t>(1, int64_t(std::llround(target)));
        // The smallest divisor nearest the target, with the divisors
        // visited in pairs (d, remaining / d) instead of listed.
        int64_t best_divisor = 1;
        double best_dist = 1e30;
        auto consider = [&](int64_t d) {
            const double dist = std::fabs(double(d) - target);
            if (dist < best_dist || (dist == best_dist && d < best_divisor)) {
                best_dist = dist;
                best_divisor = d;
            }
        };
        for (int64_t d = 1; d * d <= remaining; ++d) {
            if (remaining % d == 0) {
                consider(d);
                consider(remaining / d);
            }
        }
        // Accept the divisor if it is within 2x of the target;
        // otherwise pad with the rounded target.
        int64_t factor = best_divisor;
        if (best_divisor > 2 * best || best_divisor * 2 < best)
            factor = best;
        factor = std::max<int64_t>(1, factor);
        slot = factor;
        remaining = ceilDiv(remaining, factor);
    }
}

TilingTable::TilingTable(size_t num_dims, int num_levels)
    : factors_(num_dims, std::vector<int64_t>(size_t(num_levels), 1)),
      numLevels_(num_levels)
{
}

void
TilingTable::set(DimId dim, int level, int64_t factor)
{
    if (dim < 0 || size_t(dim) >= factors_.size())
        fatal("TilingTable::set: dim ", dim, " out of range");
    if (level < 0 || level >= numLevels_)
        fatal("TilingTable::set: level ", level, " out of range");
    if (factor < 1)
        fatal("TilingTable::set: factor must be >= 1, got ", factor);
    factors_[size_t(dim)][size_t(level)] = factor;
}

int64_t
TilingTable::get(DimId dim, int level) const
{
    if (dim < 0 || size_t(dim) >= factors_.size() || level < 0 ||
        level >= numLevels_) {
        return 1;
    }
    return factors_[size_t(dim)][size_t(level)];
}

int64_t
TilingTable::product(DimId dim) const
{
    int64_t p = 1;
    for (int level = 0; level < numLevels_; ++level)
        p *= get(dim, level);
    return p;
}

void
TilingTable::normalize(const Workload& workload)
{
    for (size_t d = 0; d < factors_.size() && d < workload.dims().size();
         ++d) {
        const int64_t extent = workload.dims()[d].extent;
        // Shrink factors top-down while the dim over-covers.
        for (int level = numLevels_ - 1; level >= 0; --level) {
            int64_t others = 1;
            for (int l = 0; l < numLevels_; ++l) {
                if (l != level)
                    others *= factors_[d][size_t(l)];
            }
            factors_[d][size_t(level)] =
                std::min(factors_[d][size_t(level)], ceilDiv(extent, others));
            factors_[d][size_t(level)] =
                std::max<int64_t>(1, factors_[d][size_t(level)]);
        }
        // Grow the outermost factor until the dim is covered.
        int64_t p = product(DimId(d));
        if (p < extent) {
            factors_[d][size_t(numLevels_ - 1)] *= ceilDiv(extent, p);
        }
    }
}

int64_t
TilingTable::residual(const Workload& workload, DimId dim, int level) const
{
    const int64_t extent = workload.dims()[size_t(dim)].extent;
    int64_t others = 1;
    for (int l = 0; l < numLevels_; ++l) {
        if (l != level)
            others *= get(dim, l);
    }
    return std::max<int64_t>(1, ceilDiv(extent, others));
}

std::string
TilingTable::str(const Workload& workload) const
{
    std::ostringstream os;
    for (size_t d = 0; d < factors_.size(); ++d) {
        os << workload.dims()[d].name << ":";
        for (int level = 0; level < numLevels_; ++level)
            os << " L" << level << "=" << get(DimId(d), level);
        os << "\n";
    }
    return os.str();
}

} // namespace tileflow
