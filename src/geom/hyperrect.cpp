#include "geom/hyperrect.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/logging.hpp"
#include "common/smallbuf.hpp"

namespace tileflow {

HyperRect::HyperRect(size_t rank) : rank_(rank)
{
    // Unreachable from any input: Workload::addTensor rejects tensors
    // of higher rank, and every slice has its tensor's rank.
    if (rank > kMaxRank)
        panic("HyperRect: rank ", rank, " exceeds kMaxRank (", kMaxRank,
              ")");
}

HyperRect::HyperRect(const std::vector<int64_t>& begins,
                     const std::vector<int64_t>& ends)
    : HyperRect(begins.size())
{
    if (begins.size() != ends.size())
        panic("HyperRect: begins/ends rank mismatch (", begins.size(),
              " vs ", ends.size(), ")");
    for (size_t d = 0; d < rank_; ++d)
        setDim(d, begins[d], ends[d]);
}

HyperRect
HyperRect::fromExtents(const std::vector<int64_t>& extents)
{
    HyperRect rect(extents.size());
    for (size_t d = 0; d < extents.size(); ++d)
        rect.setDim(d, 0, extents[d]);
    return rect;
}

bool
HyperRect::empty() const
{
    if (rank_ == 0)
        return true;
    for (size_t d = 0; d < rank_; ++d) {
        if (ends_[d] <= begins_[d])
            return true;
    }
    return false;
}

int64_t
HyperRect::volume() const
{
    if (empty())
        return 0;
    // Accumulate in 128 bits: every extent is positive here, so the
    // running product is monotone and a per-step bound check catches
    // the first wrap instead of silently corrupting data-movement
    // volumes on large fused workloads.
    __int128 vol = 1;
    for (size_t d = 0; d < rank_; ++d) {
        vol *= __int128(ends_[d] - begins_[d]);
        // Overflow here is a property of the (possibly user-supplied)
        // problem sizes, not an internal invariant violation, so it is
        // a recoverable fatal() rather than an abort — mapper guards
        // and spec loaders catch it and report the offending input.
        if (vol > __int128(std::numeric_limits<int64_t>::max()))
            fatal("HyperRect::volume: overflow at ", str());
    }
    return int64_t(vol);
}

HyperRect
HyperRect::intersect(const HyperRect& other) const
{
    if (empty() || other.empty())
        return HyperRect();
    if (rank() != other.rank())
        panic("HyperRect::intersect: rank mismatch (", rank(), " vs ",
              other.rank(), ")");
    HyperRect out(rank_);
    for (size_t d = 0; d < rank_; ++d) {
        const int64_t begin = std::max(begins_[d], other.begins_[d]);
        const int64_t end = std::min(ends_[d], other.ends_[d]);
        if (end <= begin)
            return HyperRect();
        out.setDim(d, begin, end);
    }
    return out;
}

int64_t
HyperRect::differenceVolume(const HyperRect& other) const
{
    return volume() - intersect(other).volume();
}

HyperRect
HyperRect::boundingUnion(const HyperRect& other) const
{
    if (empty())
        return other;
    if (other.empty())
        return *this;
    if (rank() != other.rank())
        panic("HyperRect::boundingUnion: rank mismatch");
    HyperRect out(rank_);
    for (size_t d = 0; d < rank_; ++d) {
        out.setDim(d, std::min(begins_[d], other.begins_[d]),
                   std::max(ends_[d], other.ends_[d]));
    }
    return out;
}

HyperRect
HyperRect::shifted(const std::vector<int64_t>& offset) const
{
    if (empty())
        return *this;
    if (offset.size() != rank())
        panic("HyperRect::shifted: offset rank mismatch");
    HyperRect out(rank_);
    for (size_t d = 0; d < rank_; ++d)
        out.setDim(d, begins_[d] + offset[d], ends_[d] + offset[d]);
    return out;
}

bool
HyperRect::contains(const HyperRect& other) const
{
    if (other.empty())
        return true;
    if (empty() || rank() != other.rank())
        return false;
    for (size_t d = 0; d < rank(); ++d) {
        if (other.begins_[d] < begins_[d] || other.ends_[d] > ends_[d])
            return false;
    }
    return true;
}

bool
HyperRect::operator==(const HyperRect& other) const
{
    if (empty() && other.empty())
        return true;
    if (rank_ != other.rank_)
        return false;
    for (size_t d = 0; d < rank_; ++d) {
        if (begins_[d] != other.begins_[d] || ends_[d] != other.ends_[d])
            return false;
    }
    return true;
}

int64_t
unionVolume(const std::vector<HyperRect>& rects)
{
    SmallBuffer<const HyperRect*, 16> live(rects.size(), nullptr);
    size_t num_live = 0;
    for (const HyperRect& r : rects) {
        if (!r.empty())
            live[num_live++] = &r;
    }
    if (num_live == 0)
        return 0;
    const size_t rank = live[0]->rank();
    for (size_t i = 0; i < num_live; ++i) {
        if (live[i]->rank() != rank)
            panic("unionVolume: rank mismatch (", rank, " vs ",
                  live[i]->rank(), ")");
    }

    // Per dimension, the sorted distinct cut coordinates: dim d's list
    // starts at cuts[d * stride] and holds num_cuts[d] entries.
    const size_t stride = 2 * num_live;
    SmallBuffer<int64_t, 128> cuts(rank * stride, 0);
    std::array<size_t, kMaxRank> num_cuts{};
    for (size_t d = 0; d < rank; ++d) {
        int64_t* first = cuts.data() + d * stride;
        for (size_t i = 0; i < num_live; ++i) {
            first[2 * i] = live[i]->begin(d);
            first[2 * i + 1] = live[i]->end(d);
        }
        std::sort(first, first + stride);
        num_cuts[d] = size_t(std::unique(first, first + stride) - first);
    }
    auto cut = [&](size_t d, size_t i) { return cuts[d * stride + i]; };

    // Odometer over grid cells; a cell is in the union iff its lower
    // corner is inside some rectangle.
    std::array<size_t, kMaxRank> cell{};
    int64_t total = 0;
    while (true) {
        __int128 cell_vol = 1;
        for (size_t d = 0; d < rank; ++d)
            cell_vol *= __int128(cut(d, cell[d] + 1) - cut(d, cell[d]));
        for (size_t i = 0; i < num_live; ++i) {
            const HyperRect* r = live[i];
            bool inside = true;
            for (size_t d = 0; d < rank && inside; ++d) {
                const int64_t lo = cut(d, cell[d]);
                inside = r->begin(d) <= lo && lo < r->end(d);
            }
            if (inside) {
                const __int128 next = __int128(total) + cell_vol;
                // Recoverable for the same reason as volume() above.
                if (next > __int128(std::numeric_limits<int64_t>::max()))
                    fatal("unionVolume: overflow");
                total = int64_t(next);
                break;
            }
        }
        size_t d = 0;
        while (d < rank && ++cell[d] + 1 >= num_cuts[d]) {
            cell[d] = 0;
            ++d;
        }
        if (d == rank)
            break;
    }
    return total;
}

std::string
HyperRect::str() const
{
    if (empty())
        return "[empty]";
    std::ostringstream os;
    os << "[";
    for (size_t d = 0; d < rank(); ++d) {
        if (d > 0)
            os << ", ";
        os << begins_[d] << ":" << ends_[d];
    }
    os << "]";
    return os.str();
}

} // namespace tileflow
