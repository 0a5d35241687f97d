/**
 * @file
 * Integer hyper-rectangles (axis-aligned boxes over element indices).
 *
 * The tree-based data-movement analysis of the paper (Sec. 5.1) reduces
 * to set differences between *data slices*, and for dense affine DNN
 * accesses every slice is a hyper-rectangle:
 *
 *     Slice_Z^t = Z[b_0:e_0, b_1:e_1, ..., b_{D-1}:e_{D-1}]
 *
 * The quantity the analysis needs is |new − old| = vol(new) −
 * vol(new ∩ old), which HyperRect provides exactly.
 *
 * Slices are built and compared millions of times per search, so a
 * rectangle keeps its bounds inline (no heap storage) up to kMaxRank
 * dimensions; Workload::addTensor rejects tensors of higher rank.
 */

#ifndef TILEFLOW_GEOM_HYPERRECT_HPP
#define TILEFLOW_GEOM_HYPERRECT_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace tileflow {

/** Highest rank a HyperRect (and so a workload tensor) can have. */
constexpr size_t kMaxRank = 8;

/**
 * An axis-aligned box of tensor elements, [begin, end) per dimension.
 *
 * An empty rectangle is represented by rank 0 or by any dimension with
 * end <= begin; all operations treat those uniformly as the empty set.
 */
class HyperRect
{
  public:
    /** The empty rectangle. */
    HyperRect() = default;

    /** Construct from per-dimension [begin, end) pairs. */
    HyperRect(const std::vector<int64_t>& begins,
              const std::vector<int64_t>& ends);

    /** A rank-`rank` rectangle with every dimension [0, 0); fill it in
     *  place with setDim(). */
    explicit HyperRect(size_t rank);

    /** A rectangle anchored at the origin with the given extents. */
    static HyperRect fromExtents(const std::vector<int64_t>& extents);

    /** Number of dimensions (0 for the canonical empty rectangle). */
    size_t rank() const { return rank_; }

    bool empty() const;

    /** Number of elements contained. */
    int64_t volume() const;

    int64_t begin(size_t dim) const { return begins_[dim]; }
    int64_t end(size_t dim) const { return ends_[dim]; }
    int64_t extent(size_t dim) const { return ends_[dim] - begins_[dim]; }

    /** Set dimension `dim` (< rank()) to [begin, end). */
    void
    setDim(size_t dim, int64_t begin, int64_t end)
    {
        begins_[dim] = begin;
        ends_[dim] = end;
    }

    /**
     * Intersection with another rectangle.
     *
     * Both rectangles must have the same rank unless one is empty.
     */
    HyperRect intersect(const HyperRect& other) const;

    /** vol(this − other): elements in this but not in other. */
    int64_t differenceVolume(const HyperRect& other) const;

    /** Smallest rectangle covering both (bounding box). */
    HyperRect boundingUnion(const HyperRect& other) const;

    /** Translate by a per-dimension offset. */
    HyperRect shifted(const std::vector<int64_t>& offset) const;

    /** True iff other is fully contained in this. */
    bool contains(const HyperRect& other) const;

    bool operator==(const HyperRect& other) const;

    /** Debug form, e.g. "[0:4, 8:14]". */
    std::string str() const;

  private:
    std::array<int64_t, kMaxRank> begins_{};
    std::array<int64_t, kMaxRank> ends_{};
    size_t rank_ = 0;
};

/**
 * Exact volume of the union of a set of rectangles (empty rectangles
 * ignored; all non-empty ones must share one rank). Computed by
 * coordinate compression: the union is sliced into the grid cells
 * induced by all begin/end coordinates and each cell is counted once
 * if any rectangle covers it. Cost is O(cells x rects), fine for the
 * handfuls of slices per tensor the analyses produce.
 */
int64_t unionVolume(const std::vector<HyperRect>& rects);

} // namespace tileflow

#endif // TILEFLOW_GEOM_HYPERRECT_HPP
