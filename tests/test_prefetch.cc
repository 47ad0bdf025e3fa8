/**
 * @file
 * Tests for the stride prefetcher.
 */

#include <gtest/gtest.h>

#include <vector>

#include "prefetch/stride_prefetcher.hh"

namespace cosim {
namespace {

std::vector<Addr>
feed(StridePrefetcher& pf, const std::vector<Addr>& addrs)
{
    std::vector<Addr> out;
    for (Addr a : addrs)
        pf.observe(a, out);
    return out;
}

TEST(StridePrefetcher, DetectsForwardStride)
{
    StridePrefetcherParams p;
    p.threshold = 2;
    p.degree = 2;
    StridePrefetcher pf(p);

    // Four accesses with stride 64 inside one 4 KB region: the first
    // sets the entry, the second trains the stride, the third and
    // fourth reach confidence >= 2 and prefetch ahead.
    auto out = feed(pf, {0x1000, 0x1040, 0x1080, 0x10c0});
    ASSERT_GE(out.size(), 2u);
    EXPECT_EQ(out[0], 0x1100u);
    EXPECT_EQ(out[1], 0x1140u);
}

TEST(StridePrefetcher, DetectsBackwardStride)
{
    StridePrefetcher pf;
    auto out = feed(pf, {0x2f00, 0x2ec0, 0x2e80, 0x2e40, 0x2e00});
    ASSERT_FALSE(out.empty());
    // The first proposal comes one stride below the 4th access.
    EXPECT_EQ(out.front(), 0x2e00u);
}

TEST(StridePrefetcher, IgnoresRandomPattern)
{
    StridePrefetcher pf;
    auto out = feed(pf, {0x1000, 0x1038, 0x1090, 0x10a8, 0x1010});
    EXPECT_TRUE(out.empty());
}

TEST(StridePrefetcher, RepeatedAddressDoesNotTrain)
{
    StridePrefetcher pf;
    auto out = feed(pf, {0x1000, 0x1000, 0x1000, 0x1000});
    EXPECT_TRUE(out.empty());
}

TEST(StridePrefetcher, LargeStrideWithinRegion)
{
    StridePrefetcherParams p;
    p.regionBits = 16; // 64 KB regions so a 1 KB stride stays inside
    StridePrefetcher pf(p);
    auto out = feed(pf, {0x10000, 0x10400, 0x10800, 0x10c00});
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out.front(), 0x11000u);
}

TEST(StridePrefetcher, RegionChangeRetrains)
{
    StridePrefetcher pf;
    auto out = feed(pf, {0x1000, 0x1040, 0x1080}); // trained in region 1
    out.clear();
    // Jump to a new region: first two accesses must not prefetch.
    pf.observe(0x9000, out);
    pf.observe(0x9040, out);
    EXPECT_TRUE(out.empty());
    pf.observe(0x9080, out);
    pf.observe(0x90c0, out);
    EXPECT_FALSE(out.empty());
}

TEST(StridePrefetcher, NeverProposesNegativeAddresses)
{
    StridePrefetcher pf;
    auto out = feed(pf, {0x100, 0xc0, 0x80, 0x40, 0x0});
    for (Addr a : out)
        EXPECT_LT(a, 0x200u); // and implicitly nothing wrapped to huge
}

TEST(StridePrefetcher, StatsAccounting)
{
    StridePrefetcher pf;
    feed(pf, {0x1000, 0x1040, 0x1080, 0x10c0});
    EXPECT_EQ(pf.stats().observed, 4u);
    EXPECT_GT(pf.stats().trained, 0u);
    EXPECT_EQ(pf.stats().issued % pf.params().degree, 0u);

    pf.resetStats();
    EXPECT_EQ(pf.stats().observed, 0u);
}

TEST(StridePrefetcher, ResetForgetsTraining)
{
    StridePrefetcher pf;
    feed(pf, {0x1000, 0x1040, 0x1080});
    pf.reset();
    std::vector<Addr> out;
    pf.observe(0x10c0, out);
    EXPECT_TRUE(out.empty()); // must retrain after reset
}

} // namespace
} // namespace cosim
