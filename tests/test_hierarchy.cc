/**
 * @file
 * Tests for the private L1(+L2) hierarchy.
 */

#include <gtest/gtest.h>

#include "base/random.hh"
#include "base/units.hh"
#include "cache/hierarchy.hh"

namespace cosim {
namespace {

HierarchyParams
l1Only(std::uint64_t l1_size = 1 * KiB)
{
    HierarchyParams p;
    p.l1 = {"l1", l1_size, 64, 2};
    p.hasL2 = false;
    return p;
}

HierarchyParams
twoLevel(std::uint64_t l1_size = 1 * KiB, std::uint64_t l2_size = 8 * KiB)
{
    HierarchyParams p;
    p.l1 = {"l1", l1_size, 64, 2};
    p.hasL2 = true;
    p.l2 = {"l2", l2_size, 64, 4};
    return p;
}

TEST(Hierarchy, L1OnlyMissGoesBeyond)
{
    PrivateHierarchy h(l1Only());
    auto r = h.access(0x1000, false);
    EXPECT_EQ(r.servicedBy, ServiceLevel::Beyond);
    ASSERT_TRUE(r.fetchLine.has_value());
    EXPECT_EQ(*r.fetchLine, 0x1000u);
    EXPECT_EQ(r.nWritebacks, 0u);

    auto r2 = h.access(0x1008, false);
    EXPECT_EQ(r2.servicedBy, ServiceLevel::L1);
}

TEST(Hierarchy, L2CatchesL1Victims)
{
    PrivateHierarchy h(twoLevel());
    // L1 is 1 KB / 2-way / 8 sets; touch 3 lines mapping to set 0.
    Addr stride = 8 * 64;
    h.access(0 * stride, false);
    h.access(1 * stride, false);
    auto r = h.access(2 * stride, false); // L1 evicts line 0 (clean)
    EXPECT_EQ(r.servicedBy, ServiceLevel::Beyond);

    // Line 0 is gone from L1 but (clean eviction) it was filled into L2
    // on the original demand miss, so this is an L2 hit.
    auto r2 = h.access(0 * stride, false);
    EXPECT_EQ(r2.servicedBy, ServiceLevel::L2);
}

TEST(Hierarchy, DirtyL1VictimStaysOnChip)
{
    PrivateHierarchy h(twoLevel());
    Addr stride = 8 * 64;
    h.access(0, true); // dirty in L1
    h.access(1 * stride, false);
    auto r = h.access(2 * stride, false); // evicts dirty line 0 into L2
    // No writeback leaves the chip: the L2 absorbed it.
    EXPECT_EQ(r.nWritebacks, 0u);
    EXPECT_TRUE(h.l2().probe(0));
}

TEST(Hierarchy, WritebackLeavesChipWhenL2EvictsDirty)
{
    // Tiny L2 (same geometry as L1) so dirty lines cascade out.
    HierarchyParams p;
    p.l1 = {"l1", 256, 64, 1}; // 4 sets, direct mapped
    p.hasL2 = true;
    p.l2 = {"l2", 256, 64, 1};
    PrivateHierarchy h(p);

    Addr stride = 4 * 64; // same set in both levels
    h.access(0, true);
    h.access(1 * stride, true);  // L1 evicts dirty 0 -> L2 (dirty)
    auto r = h.access(2 * stride, true); // L1 evicts dirty 1*stride ->
                                         // L2 evicts dirty 0 -> bus
    bool saw_wb = false;
    for (unsigned i = 0; i < r.nWritebacks; ++i)
        saw_wb |= r.writebacks[i] == 0;
    EXPECT_TRUE(saw_wb);
}

TEST(Hierarchy, BusLineSizeFollowsOutermostLevel)
{
    PrivateHierarchy a(l1Only());
    EXPECT_EQ(a.busLineSize(), 64u);

    HierarchyParams p = twoLevel();
    p.l2.lineSize = 128;
    PrivateHierarchy b(p);
    EXPECT_EQ(b.busLineSize(), 128u);
}

TEST(Hierarchy, PrefetchFillsOutermostLevel)
{
    PrivateHierarchy h(twoLevel());
    EXPECT_TRUE(h.prefetchFill(0x4000));
    EXPECT_TRUE(h.l2().probe(0x4000));
    EXPECT_FALSE(h.l1().probe(0x4000));

    auto r = h.access(0x4000, false);
    EXPECT_EQ(r.servicedBy, ServiceLevel::L2);
    EXPECT_TRUE(r.l2PrefetchHit);
}

TEST(Hierarchy, FlushAndResetStats)
{
    PrivateHierarchy h(twoLevel());
    h.access(0, true);
    h.flush();
    EXPECT_EQ(h.l1().linesValid(), 0u);
    EXPECT_EQ(h.l2().linesValid(), 0u);
    h.resetStats();
    EXPECT_EQ(h.l1().stats().accesses, 0u);
}

TEST(Hierarchy, L2FilterReducesBeyondTraffic)
{
    PrivateHierarchy with_l2(twoLevel(1 * KiB, 64 * KiB));
    PrivateHierarchy without(l1Only(1 * KiB));

    Rng rng(7);
    std::uint64_t beyond_with = 0;
    std::uint64_t beyond_without = 0;
    for (int i = 0; i < 40000; ++i) {
        Addr a = rng.nextBounded(32 * KiB);
        if (with_l2.access(a, false).servicedBy == ServiceLevel::Beyond)
            ++beyond_with;
        if (without.access(a, false).servicedBy == ServiceLevel::Beyond)
            ++beyond_without;
    }
    EXPECT_LT(beyond_with, beyond_without / 4);
}

} // namespace
} // namespace cosim
