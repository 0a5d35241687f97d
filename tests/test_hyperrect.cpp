/**
 * @file
 * HyperRect unit and property tests — the slice set-difference algebra
 * the data-movement analysis rests on.
 */

#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "geom/hyperrect.hpp"

namespace tileflow {
namespace {

TEST(HyperRect, Volume)
{
    HyperRect r({0, 0}, {4, 6});
    EXPECT_EQ(r.volume(), 24);
}

TEST(HyperRect, EmptyByDefault)
{
    HyperRect r;
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.volume(), 0);
}

TEST(HyperRect, DegenerateDimensionIsEmpty)
{
    HyperRect r({0, 5}, {4, 5});
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.volume(), 0);
}

TEST(HyperRect, FromExtentsAnchorsAtOrigin)
{
    HyperRect r = HyperRect::fromExtents({3, 4, 5});
    EXPECT_EQ(r.volume(), 60);
    EXPECT_EQ(r.begin(0), 0);
    EXPECT_EQ(r.end(2), 5);
}

TEST(HyperRect, IntersectOverlapping)
{
    HyperRect a({0, 0}, {4, 6});
    HyperRect b({2, 4}, {8, 10});
    HyperRect c = a.intersect(b);
    EXPECT_EQ(c.begin(0), 2);
    EXPECT_EQ(c.end(0), 4);
    EXPECT_EQ(c.volume(), 2 * 2);
}

TEST(HyperRect, IntersectDisjointIsEmpty)
{
    HyperRect a({0, 0}, {4, 4});
    HyperRect b({4, 0}, {8, 4});
    EXPECT_TRUE(a.intersect(b).empty());
}

TEST(HyperRect, IntersectWithEmptyIsEmpty)
{
    HyperRect a({0}, {4});
    EXPECT_TRUE(a.intersect(HyperRect()).empty());
    EXPECT_TRUE(HyperRect().intersect(a).empty());
}

TEST(HyperRect, DifferenceVolumeFig5Values)
{
    // The paper's Fig. 5 slice deltas for tensor A.
    HyperRect t00({0, 0}, {4, 6});
    HyperRect t01({0, 4}, {4, 10});
    HyperRect t02({0, 8}, {4, 14});
    HyperRect t10({4, 0}, {8, 6});
    EXPECT_EQ(t01.differenceVolume(t00), 4 * 4); // reuse 4x2
    EXPECT_EQ(t10.differenceVolume(t02), 4 * 6); // full new read
    EXPECT_EQ(t00.differenceVolume(HyperRect()), 4 * 6);
}

TEST(HyperRect, DifferenceWithSelfIsZero)
{
    HyperRect a({1, 2}, {5, 9});
    EXPECT_EQ(a.differenceVolume(a), 0);
}

TEST(HyperRect, BoundingUnionCoversBoth)
{
    HyperRect a({0, 0}, {2, 2});
    HyperRect b({4, 4}, {6, 6});
    HyperRect u = a.boundingUnion(b);
    EXPECT_TRUE(u.contains(a));
    EXPECT_TRUE(u.contains(b));
    EXPECT_EQ(u.volume(), 36);
}

TEST(HyperRect, BoundingUnionWithEmptyIsIdentity)
{
    HyperRect a({1}, {4});
    EXPECT_TRUE(a.boundingUnion(HyperRect()) == a);
    EXPECT_TRUE(HyperRect().boundingUnion(a) == a);
}

TEST(HyperRect, ShiftedPreservesVolume)
{
    HyperRect a({0, 0}, {3, 5});
    HyperRect s = a.shifted({10, -2});
    EXPECT_EQ(s.volume(), a.volume());
    EXPECT_EQ(s.begin(0), 10);
    EXPECT_EQ(s.begin(1), -2);
}

TEST(HyperRect, ContainsAcceptsSubRect)
{
    HyperRect a({0, 0}, {10, 10});
    EXPECT_TRUE(a.contains(HyperRect({2, 3}, {5, 7})));
    EXPECT_FALSE(a.contains(HyperRect({2, 3}, {5, 11})));
    EXPECT_TRUE(a.contains(HyperRect())); // empty in anything
}

TEST(HyperRect, StrIsReadable)
{
    EXPECT_EQ(HyperRect({0, 8}, {4, 14}).str(), "[0:4, 8:14]");
    EXPECT_EQ(HyperRect().str(), "[empty]");
}

/** Property sweep over random rectangle pairs. */
class HyperRectProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(HyperRectProperty, SetAlgebraInvariants)
{
    Rng rng(uint64_t(GetParam()) * 7919u + 13u);
    for (int iter = 0; iter < 50; ++iter) {
        const size_t rank = size_t(rng.uniformInt(1, 4));
        std::vector<int64_t> ab(rank), ae(rank), bb(rank), be(rank);
        for (size_t d = 0; d < rank; ++d) {
            ab[d] = rng.uniformInt(-10, 10);
            ae[d] = ab[d] + rng.uniformInt(1, 12);
            bb[d] = rng.uniformInt(-10, 10);
            be[d] = bb[d] + rng.uniformInt(1, 12);
        }
        const HyperRect a(ab, ae), b(bb, be);
        const HyperRect inter = a.intersect(b);

        // Intersection is symmetric and contained in both.
        EXPECT_EQ(inter.volume(), b.intersect(a).volume());
        EXPECT_LE(inter.volume(), std::min(a.volume(), b.volume()));
        EXPECT_TRUE(a.contains(inter));
        EXPECT_TRUE(b.contains(inter));

        // |A - B| + |A ∩ B| = |A|.
        EXPECT_EQ(a.differenceVolume(b) + inter.volume(), a.volume());

        // Bounding union covers both operands.
        const HyperRect u = a.boundingUnion(b);
        EXPECT_TRUE(u.contains(a));
        EXPECT_TRUE(u.contains(b));
        EXPECT_GE(u.volume(), std::max(a.volume(), b.volume()));

        // Translation invariance of difference volumes.
        std::vector<int64_t> off(rank);
        for (size_t d = 0; d < rank; ++d)
            off[d] = rng.uniformInt(-5, 5);
        EXPECT_EQ(a.shifted(off).differenceVolume(b.shifted(off)),
                  a.differenceVolume(b));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HyperRectProperty,
                         ::testing::Range(0, 8));

TEST(HyperRect, MaxRankIsSupported)
{
    std::vector<int64_t> begins(kMaxRank, 1);
    std::vector<int64_t> ends(kMaxRank, 3);
    const HyperRect r(begins, ends);
    EXPECT_EQ(r.rank(), kMaxRank);
    EXPECT_EQ(r.volume(), int64_t(1) << kMaxRank);

    ends.back() = 2;
    const HyperRect smaller(begins, ends);
    EXPECT_EQ(r.intersect(smaller), smaller);
    EXPECT_EQ(r.differenceVolume(smaller), int64_t(1) << (kMaxRank - 1));
    EXPECT_EQ(unionVolume({r, smaller}), r.volume());
    EXPECT_TRUE(r.contains(smaller));
    EXPECT_EQ(smaller.boundingUnion(r), r);
    EXPECT_EQ(r.shifted(std::vector<int64_t>(kMaxRank, -1)).begin(0), 0);
}

TEST(HyperRect, EqualityAndEmptinessAcrossRanks)
{
    for (size_t rank = 1; rank <= kMaxRank; ++rank) {
        const HyperRect box = HyperRect::fromExtents(
            std::vector<int64_t>(rank, 2));
        EXPECT_FALSE(box.empty()) << rank;
        EXPECT_EQ(box, HyperRect::fromExtents(std::vector<int64_t>(rank, 2)));
        // Equal bounds in the shared dims, different ranks: unequal.
        if (rank > 1) {
            EXPECT_FALSE(box == HyperRect::fromExtents(
                                    std::vector<int64_t>(rank - 1, 2)))
                << rank;
        }
        // A collapsed dimension empties the box, and every empty box
        // equals every other, whatever the rank.
        std::vector<int64_t> extents(rank, 2);
        extents[rank - 1] = 0;
        const HyperRect flat = HyperRect::fromExtents(extents);
        EXPECT_TRUE(flat.empty()) << rank;
        EXPECT_EQ(flat, HyperRect());
        EXPECT_EQ(flat.volume(), 0);
        EXPECT_FALSE(flat == box);
    }
}

TEST(HyperRect, VolumeNearInt64MaxIsExact)
{
    // 2^62 elements fit in int64 and must not trip the guard.
    const int64_t e = int64_t(1) << 31;
    HyperRect r({0, 0}, {e, e});
    EXPECT_EQ(r.volume(), int64_t(1) << 62);
}

TEST(HyperRect, VolumeThrowsOnOverflowInsteadOfWrapping)
{
    // 2^64 elements: the old code silently wrapped to 0. Oversized
    // problem sizes come from user specs, so overflow is a
    // recoverable FatalError, not an abort.
    const int64_t e = int64_t(1) << 32;
    HyperRect r({0, 0}, {e, e});
    EXPECT_THROW(r.volume(), FatalError);
}

TEST(HyperRect, UnionVolumeThrowsOnOverflow)
{
    const int64_t e = int64_t(1) << 32;
    HyperRect a({0, 0}, {e, e});
    HyperRect b({1, 1}, {e, e});
    EXPECT_THROW(unionVolume({a, b}), FatalError);
}

} // namespace
} // namespace tileflow
